"""Tests for the enabled set :class:`~repro.runtime.system.System` keeps
incrementally: it must always equal the POISED processes in ascending
pid order, survive forks independently, and leave every seeded random
schedule exactly as it was when the set was recomputed per call."""

import hashlib
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.set_consensus_from_family import partition_set_consensus_spec
from repro.objects.consensus_object import NConsensusSpec
from repro.objects.register import RegisterSpec
from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE
from repro.runtime.ops import invoke
from repro.runtime.process import ProcessStatus
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.system import SystemSpec

#: sha256 over ``full_decisions`` and sorted outputs of the 300 runs of
#: :func:`schedule_digest`, recorded while ``enabled_pids`` still rebuilt
#: the list from the process statuses on every call.
SCHEDULE_DIGEST = "164a06ec566704c6f9b452956dc2fc4a2f60df2b8fda97bee7ee7241aad35f56"


def mixed_spec():
    """Five processes covering every status: a third proposal to a
    2-consensus object in hang mode blocks, and pid 2 is done at build."""

    def proposer(pid):
        def run():
            decided = yield invoke("c", "propose", pid)
            yield invoke("r", "write", decided)
            seen = yield invoke("r", "read")
            return seen

        return run

    def idle():
        return "idle"
        yield  # a generator that returns before its first operation

    return SystemSpec(
        {"c": NConsensusSpec(2, hang_on_misuse=True), "r": RegisterSpec()},
        [proposer(0), proposer(1), idle, proposer(3), proposer(4)],
    )


def poised(system):
    return [p.pid for p in system.processes if p.status is ProcessStatus.POISED]


actions = st.lists(
    st.tuples(
        st.sampled_from(["step", "crash", "recover", "fork", "mutate"]),
        st.integers(0, 4),
    ),
    max_size=40,
)


@given(actions)
@settings(max_examples=200, deadline=None)
@example(
    [("step", 0), ("step", 1), ("fork", 0), ("step", 3), ("crash", 4),
     ("fork", 0), ("recover", 4), ("mutate", 0), ("step", 4)]
)
# pid 3 stays POISED over two steps (skipping the status bookkeeping),
# then its third step finishes it.
@example([("step", 3), ("step", 3), ("fork", 0), ("step", 3)])
def test_enabled_set_equals_poised_processes(script):
    system = mixed_spec().build()
    assert system.enabled_pids() == poised(system)
    ancestors = []
    for action, pid in script:
        if action == "step":
            if system.processes[pid].status is not ProcessStatus.POISED:
                continue
            system.apply(pid, 0)
        elif action == "crash":
            system.apply(pid, CRASH_CHOICE)
        elif action == "recover":
            system.apply(pid, RECOVER_CHOICE)
        elif action == "fork":
            ancestors.append((system, system.enabled_pids()))
            system = system.fork()
        else:
            returned = system.enabled_pids()
            returned.reverse()
            returned.append(pid)
        assert system.enabled_pids() == poised(system)
        assert system.is_quiescent() == (not poised(system))
        assert system.trace.statuses == {p.pid: p.status for p in system.processes}
    for ancestor, enabled in ancestors:
        assert ancestor.enabled_pids() == enabled == poised(ancestor)


def schedule_digest():
    """The ``simulate`` workload's runs: 100 processes, seeds 0..299."""
    inputs = [f"v{i}" for i in range(100)]
    spec = partition_set_consensus_spec(2, 1, inputs)
    digest = hashlib.sha256()
    for seed in range(300):
        execution = spec.run(RandomScheduler(seed))
        digest.update(
            json.dumps(
                [execution.full_decisions, sorted(execution.outputs.items())]
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def test_random_schedules_are_pinned():
    """``RandomScheduler`` picks by index into ``enabled_pids()``, so any
    change to the set's order or contents changes these 300 runs."""
    assert schedule_digest() == SCHEDULE_DIGEST
