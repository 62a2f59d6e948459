"""The walk's object-transition table and copy-on-write forks.

A walk applies each distinct (state, operation) once and hands every
later visit the recorded outcomes, with each new state replaced by an
earlier one of the same ``repr`` text, type and value.  None of this may
show: every execution's final configuration and outputs must equal
those of a fresh, unforked replay of its decisions, which applies every
operation itself.  Forks share process records until one side writes
them, and the last child of a node takes its parent's system over.
"""

import pytest

from repro.algorithms.set_consensus_from_family import set_consensus_spec
from repro.algorithms.snapshot_impl import (
    annotated_scan,
    annotated_update,
    snapshot_objects,
)
from repro.objects.base import ObjectSpec
from repro.objects.consensus_object import NConsensusSpec
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.process import ProcessStatus
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.system import SystemSpec


class BagSpec(ObjectSpec):
    """A set whose ``repr`` depends on insertion order: adding 8 to
    ``{0}`` and 0 to ``{8}`` give equal frozensets that print
    differently, and ``items`` returns them in that order."""

    deterministic = True

    def initial_state(self):
        return frozenset()

    def op_add(self, state, value):
        return [(None, frozenset(list(state) + [value]))]

    def op_items(self, state):
        return [(tuple(state), state)]


def bag_spec():
    def program(value):
        def run():
            yield invoke("bag", "add", value)
            items = yield invoke("bag", "items")
            return items

        return run

    return SystemSpec({"bag": BagSpec()}, [program(0), program(8)])


def snapshot_spec():
    """E9: snapshot from registers, one updater and one scanner."""

    def updater():
        yield from annotated_update("snap", 2, 0, "x", 1)
        view = yield from annotated_scan("snap", 2)
        return view

    def scanner():
        view = yield from annotated_scan("snap", 2)
        return view

    return SystemSpec(snapshot_objects("snap", 2), [updater, scanner])


def proposers(obj, values):
    def program(value):
        def run():
            decided = yield invoke("c", "propose", value)
            return decided

        return run

    return SystemSpec({"c": obj}, [program(value) for value in values])


CASES = {
    "O(1,2) f=2 r=2": lambda: (
        set_consensus_spec(1, 2, ["a", "b", "c", "d"]),
        {"max_crashes": 2, "max_recoveries": 2},
    ),
    "O(2,1) f=1": lambda: (
        set_consensus_spec(2, 1, ["a", "b", "c", "d", "e", "f"]),
        {"max_crashes": 1},
    ),
    "E9 snapshot": lambda: (snapshot_spec(), {"max_depth": 60}),
    "nondeterministic (3,2)-set consensus": lambda: (
        proposers(SetConsensusSpec(3, 2), ["a", "b", "c"]),
        {"max_crashes": 1, "max_recoveries": 1},
    ),
    "hang_on_misuse 1-consensus": lambda: (
        proposers(NConsensusSpec(1, hang_on_misuse=True), ["a", "b"]),
        {"max_crashes": 1, "max_recoveries": 1},
    ),
    "insertion-ordered frozensets": lambda: (bag_spec(), {}),
}


#: Exact counters: executions (= forks) and object applies, which equal
#: the distinct (state text, operation value) pairs.  Before operations
#: were interned, equal operations yielded at different program nodes
#: missed each other's entries: E9 applied 23 times and the bag 10.
PINNED = {
    "O(1,2) f=2 r=2": (6540, 52),
    "O(2,1) f=1": (5040, 962),
    "E9 snapshot": (1995, 5),
    "insertion-ordered frozensets": (6, 8),
}


class ReplayCheck:
    """Compares each execution, at the moment it is yielded, with a
    fresh unforked replay of its decisions, and collects the transitions
    the walk's nodes step on: ``sites`` by object state text and
    operation object (the table's key up to canonical states),
    ``transitions`` by state text and operation value."""

    def __init__(self, spec):
        self.spec = spec
        self.executions = 0
        self.sites = set()
        self.transitions = set()

    def observe_configuration(self, system, depth, children):
        for pid in system.enabled_pids():
            operation = system.pending_operation(pid)
            text = repr(system.object_states[operation.target])
            self.sites.add((text, id(operation)))
            self.transitions.add((text, operation))

    def observe(self, execution, system):
        fresh = self.spec.replay(execution.full_decisions)
        replayed = fresh.finalize()
        assert system.configuration() == fresh.configuration()
        assert execution.outputs == replayed.outputs
        assert [repr(execution.outputs[p]) for p in sorted(execution.outputs)] == [
            repr(replayed.outputs[p]) for p in sorted(replayed.outputs)
        ]
        assert execution.statuses == replayed.statuses
        assert not fresh.memo.recording and fresh.memo.transitions == {}
        self.executions += 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_configurations_equal_unforked_replay(name):
    spec, options = CASES[name]()
    check = ReplayCheck(spec)
    explorer = Explorer(spec, observers=[check], **options)
    count = sum(1 for _ in explorer.executions())
    stats = explorer.stats
    assert count == check.executions == stats.executions > 0
    # Each distinct (state, operation) met is applied exactly once:
    # equal operations yielded at different program nodes are one
    # interned object.
    assert stats.object_applies == len(check.sites) == len(check.transitions)
    # A fresh walk forks once per execution and replays nothing.
    assert stats.systems_forked == stats.executions
    assert stats.steps_replayed == 0
    if name in PINNED:
        executions, applies = PINNED[name]
        assert stats.executions == executions
        assert stats.object_applies == applies == len(check.transitions)


def test_equal_states_with_different_texts_stay_apart():
    """The two insertion orders reach equal bags that print differently;
    canonicalizing on equality alone would merge them and report the
    wrong order to the reader."""
    spec = bag_spec()
    outputs = {
        tuple(sorted(e.outputs.items()))
        for e in Explorer(spec).executions()
    }
    assert ((0, (0, 8)), (1, (0, 8))) in outputs
    assert ((0, (8, 0)), (1, (8, 0))) in outputs


def test_unforked_run_keeps_no_transition_table():
    spec = set_consensus_spec(2, 1, ["a", "b", "c", "d", "e", "f"])
    system = spec.build()
    execution = system.run(RandomScheduler(3))
    assert execution.all_done()
    memo = system.memo
    assert not memo.recording
    assert memo.transitions == {} and memo.texts == {}
    assert memo.forks == 0 and memo.applies == 0


class Identities:
    def __init__(self):
        self.texts = {}

    def observe_configuration(self, system, depth, children):
        for text in system.identity()[: len(system.object_states)]:
            self.texts.setdefault(text, set()).add(id(text))


def test_forks_in_equal_states_share_identity_text_objects():
    def writer():
        yield invoke("r", "write", ("v", 1))

    def other_writer():
        yield invoke("r", "write", tuple(["v", 1]))

    spec = SystemSpec({"r": RegisterSpec()}, [writer, other_writer])
    system = spec.build()
    first, second = system.fork(), system.fork()
    first.step(0)
    second.step(1)
    assert first.object_states["r"] == second.object_states["r"]
    assert first.identity()[0] is second.identity()[0]


def test_walk_identities_hold_one_text_object_per_state_text():
    spec, options = CASES["O(2,1) f=1"]()
    identities = Identities()
    list(Explorer(spec, observers=[identities], **options).executions())
    assert identities.texts
    assert all(len(ids) == 1 for ids in identities.texts.values())


class TestCopyOnWrite:
    def spec(self):
        def program():
            got = yield invoke("r", "read")
            yield invoke("r", "write", got)

        return SystemSpec({"r": RegisterSpec()}, [program, program, program])

    def test_fork_shares_records_until_written(self):
        system = self.spec().build()
        clone = system.fork()
        assert clone.processes is not system.processes
        assert all(a is b for a, b in zip(clone.processes, system.processes))
        clone.step(0)
        clone.crash(1)
        assert clone.processes[0] is not system.processes[0]
        assert clone.processes[1] is not system.processes[1]
        assert clone.processes[2] is system.processes[2]
        assert system.processes[0].pending_operation == invoke("r", "read")
        assert system.processes[1].status is ProcessStatus.POISED
        # The parent copies too: its records are shared with the clone.
        system.step(2)
        assert clone.processes[2].pending_operation == invoke("r", "read")
        assert system.processes[2].steps_taken == 1
        assert clone.processes[2].steps_taken == 0

    def test_recover_copies_a_shared_crashed_record(self):
        system = self.spec().build()
        system.crash(0)
        clone = system.fork()
        clone.recover(0)
        assert clone.processes[0].status is ProcessStatus.POISED
        assert system.processes[0].status is ProcessStatus.CRASHED

    def test_last_child_takes_its_parent_over(self):
        """One fork per execution: the root's fork, then one per extra
        child; a parent yielded as an execution forks all its children."""
        spec = self.spec()
        explorer = Explorer(spec)
        count = sum(1 for _ in explorer.executions())
        assert explorer.stats.systems_forked == count == 90
        explorer = Explorer(spec, max_crashes=1, max_recoveries=1)
        executions = list(explorer.executions())
        assert explorer.stats.systems_forked == len(executions)
        for execution in executions:
            replayed = spec.replay(execution.full_decisions).finalize()
            assert replayed.steps == execution.steps
            assert replayed.statuses == execution.statuses


class Writer(ObjectSpec):
    """A register whose ``read`` returns the written value's type name:
    ``write(1)`` and ``write(True)`` are equal operations with
    different outcomes."""

    deterministic = True

    def initial_state(self):
        return None

    def op_write(self, state, value):
        return [(None, value)]

    def op_read(self, state):
        return [(type(state).__name__, state)]


def test_equal_operations_of_different_types_never_share_an_entry():
    from repro.runtime.ops import Operation
    from repro.runtime.process import ProgramMemo

    memo = ProgramMemo({})
    one = memo.intern(Operation("r", "write", (1,)))
    true = memo.intern(Operation("r", "write", (True,)))
    assert one == true and one is not true
    assert memo.intern(Operation("r", "write", (1,))) is one
    assert memo.intern(Operation("r", "write", ((1,),))) is not \
        memo.intern(Operation("r", "write", ((True,),)))

    def program(value):
        def run():
            yield invoke("r", "write", value)
            kind = yield invoke("r", "read")
            return kind

        return run

    spec = SystemSpec({"r": Writer()}, [program(1), program(True)])
    check = ReplayCheck(spec)
    memos = set()

    class MemoProbe:
        def observe(self, _execution, system):
            memos.add(system.memo)

    explorer = Explorer(spec, observers=[check, MemoProbe()])
    outputs = {tuple(sorted(e.outputs.items())) for e in explorer.executions()}
    assert ((0, "bool"), (1, "bool")) in outputs
    assert ((0, "int"), (1, "int")) in outputs
    (memo,) = memos
    writes = [
        operation.args for state, operation, _outcomes in memo.transitions.values()
        if state is None and operation.method == "write"
    ]
    assert sorted(map(repr, writes)) == ["(1,)", "(True,)"]
    assert explorer.stats.object_applies == len(check.sites)


#: The walks whose every edge :class:`TestSuccessorIdentity` checks: the
#: cases above (the CI-pinned ``rec`` and ``crash`` instances, E9's
#: annotating snapshot, a nondeterministic object with several outcomes,
#: a hang-on-misuse object) plus the ``rec-r1`` instance and O(2,1)
#: without faults.
SUCCESSOR_CASES = {
    **CASES,
    "O(1,2) f=2 r=1": lambda: (
        set_consensus_spec(1, 2, ["a", "b", "c", "d"]),
        {"max_crashes": 2, "max_recoveries": 1},
    ),
    "O(2,1)": lambda: (set_consensus_spec(2, 1, ["a", "b", "c", "d", "e", "f"]), {}),
}


def fresh_identity(system):
    """``system``'s identity computed anew, not read from its cache."""
    copy = system.fork()
    copy._identity = None
    return copy.identity()


class TestSuccessorIdentity:
    """``System.successor_identity`` is the identity ``fork`` + ``apply``
    reaches, and leaves the configuration it is asked about unchanged:
    the state-cached walk looks a child up by it before (and, on a hit,
    instead of) forking."""

    @pytest.mark.parametrize("name", sorted(SUCCESSOR_CASES))
    def test_every_edge_of_the_cached_walk(self, monkeypatch, name):
        spec, options = SUCCESSOR_CASES[name]()
        branches = Explorer._branches
        edges = {"step": 0, CRASH_CHOICE: 0, RECOVER_CHOICE: 0, "blocked": 0}

        def checked(explorer, system, prefix):
            found = branches(explorer, system, prefix)
            before = fresh_identity(system)
            for (pid, choice), outcomes in found:
                computed = system.successor_identity(pid, choice, outcomes)
                if choice in (CRASH_CHOICE, RECOVER_CHOICE):
                    edges[choice] += 1
                else:
                    edges["step" if outcomes else "blocked"] += 1
                    assert system.successor_identity(pid, choice) == computed
                child = system.fork()
                child.apply(pid, choice, outcomes)
                assert child.identity() == computed
            assert fresh_identity(system) == before
            return found

        monkeypatch.setattr(Explorer, "_branches", checked)
        stats = Explorer(spec, strict=False, **options).run()
        assert stats.executions > 0 and edges["step"] > 0
        if options.get("max_crashes"):
            assert edges[CRASH_CHOICE] > 0
        if options.get("max_recoveries"):
            assert edges[RECOVER_CHOICE] > 0
        if "hang_on_misuse" in name:
            assert edges["blocked"] > 0

    def test_no_op_faults_name_the_configuration_itself(self):
        """A crash of a dead process and a recovery of a live one change
        nothing, as ``crash`` and ``recover`` do."""
        spec, _options = CASES["hang_on_misuse 1-consensus"]()
        crashed_done = spec.build()
        crashed_done.crash(0)
        crashed_done.step(1)
        done_blocked = spec.build()
        done_blocked.step(0)
        done_blocked.step(1)  # the second proposal blocks
        for system, statuses in [
            (crashed_done, [ProcessStatus.CRASHED, ProcessStatus.DONE]),
            (done_blocked, [ProcessStatus.DONE, ProcessStatus.BLOCKED]),
        ]:
            assert [p.status for p in system.processes] == statuses
            for pid in (0, 1):
                for choice in (CRASH_CHOICE, RECOVER_CHOICE):
                    if statuses[pid] is ProcessStatus.CRASHED \
                            and choice == RECOVER_CHOICE:
                        continue
                    child = system.fork()
                    child.apply(pid, choice)
                    identity = system.identity()
                    assert system.successor_identity(pid, choice) == identity
                    assert child.identity() == identity

    def test_a_memo_not_yet_recording_starts_recording(self):
        """Before the first fork the memo records no transition, so an
        ``advance`` would consume the node's generator and lead the
        later step elsewhere; the method starts recording first, and the
        step then reaches the recorded node without resuming any
        program."""
        spec, _options = CASES["E9 snapshot"]()
        system = spec.build()
        assert not system.memo.recording
        computed = system.successor_identity(0, 0)
        assert system.memo.recording
        resumes = system.memo.resumes
        system.step(0)
        assert system.memo.resumes == resumes
        assert fresh_identity(system) == computed
