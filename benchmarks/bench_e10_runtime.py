"""E10 — the performance envelope of the machinery itself.

These are the numbers a user needs to size their own experiments: raw
simulator step throughput, explorer tree-walk cost, the Wing–Gong
checker on histories of growing width, and the
cost of the observability layer (instrumented-but-disabled vs a live
JSONL sink) and of the opt-in state-space audit (no auditor vs an
attached :class:`~repro.obs.audit.StateAuditor`), each guarded by a
bound at about twice the worst ratio measured.  End-to-end speed is
tracked by ``perfbench/`` (see perfbench/README.md).
"""

import time

from conftest import assert_rows_ok

from repro.algorithms.set_consensus_from_family import (
    partition_set_consensus_spec,
    set_consensus_spec,
)
from repro.analysis.linearizability import is_linearizable
from repro.experiments.suite import run_e10_runtime
from repro.obs.events import JsonlSink, use_sink
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.history import History, HistoryEvent
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.system import System


def test_e10_full_table(benchmark):
    rows = benchmark.pedantic(run_e10_runtime, rounds=2, iterations=1)
    assert_rows_ok(rows)


def test_e10_simulator_throughput(benchmark):
    inputs = [f"v{i}" for i in range(48)]
    spec = partition_set_consensus_spec(2, 1, inputs)

    def run():
        return spec.run(RandomScheduler(1))

    execution = benchmark(run)
    assert execution.all_done()


def test_e10_explorer_tree_walk(benchmark):
    inputs = [f"v{i}" for i in range(5)]
    spec = set_consensus_spec(1, 3, inputs)  # 5 one-step processes: 120

    def run():
        return sum(1 for _ in Explorer(spec, max_depth=8).executions())

    assert benchmark(run) == 120


def test_e10_headline_walk_counters(monkeypatch):
    """Exact engine counters of E10's 720-schedule O(2,1) walk, which no
    timing noise can blur: the walk builds one ``System`` and forks once
    per execution (each node's last child takes its parent's system
    over), replays nothing, and applies each distinct object transition
    once (962 on this walk; the walk takes 1,956 steps)."""
    builds = []
    build = System.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(System, "__init__", counted_build)
    inputs = [f"v{i}" for i in range(6)]  # as in run_e10_runtime
    explorer = Explorer(set_consensus_spec(2, 1, inputs), max_depth=10)
    assert sum(1 for _ in explorer.executions()) == 720
    stats = explorer.stats
    assert len(builds) == 1
    assert stats.systems_forked == stats.executions == 720
    assert stats.steps_replayed == 0
    assert stats.steps_on_path == 1956
    assert stats.object_applies == 962


def test_e10_obs_overhead(tmp_path):
    """Instrumentation-cost guard: the same workload with sinks disabled
    (the NullSink fast path every normal run takes) and with a JSONL sink
    attached.  The disabled path is asserted to stay cheap and the
    printed ratio is bounded.
    """
    inputs = [f"v{i}" for i in range(24)]
    spec = partition_set_consensus_spec(2, 1, inputs)
    seeds = range(30)

    def workload():
        total = 0
        for seed in seeds:
            total += len(spec.run(RandomScheduler(seed)))
        return total

    workload()  # warm-up: JIT-free but primes caches and allocator

    def timed(repeat=3):
        best = float("inf")
        steps = 0
        for _ in range(repeat):
            start = time.perf_counter()
            steps = workload()
            best = min(best, time.perf_counter() - start)
        return best, steps

    disabled_seconds, steps = timed()

    sink = JsonlSink(str(tmp_path / "bench.jsonl"))
    with use_sink(sink):
        jsonl_seconds, _ = timed()
    sink.close()

    ratio = jsonl_seconds / disabled_seconds if disabled_seconds else float("inf")
    disabled_rate = steps / disabled_seconds if disabled_seconds else float("inf")
    print(
        f"\nobs overhead: {steps} steps/run-set; "
        f"disabled {disabled_seconds:.4f}s ({disabled_rate:,.0f} steps/s), "
        f"jsonl {jsonl_seconds:.4f}s, ratio {ratio:.2f}x"
    )
    assert steps > 0
    # The disabled path must keep the simulator inside its E10 envelope —
    # the instrumented guard is one flag check per step.
    assert disabled_rate > 10_000, f"disabled-path rate fell to {disabled_rate:,.0f}/s"
    # The JSONL sink pays for dict building + json encoding + IO per step;
    # anything above this bound means the fast-path guard broke.  Measured
    # 1.37-2.59x over 16 runs, median 1.56x, with the line encoder built
    # once per process (2-vCPU Xeon, CPython 3.11); the encoder built per
    # line read 1.21-1.84x over 6 runs interleaved with them.
    assert ratio < 3.5, f"JSONL sink overhead grew: {ratio:.2f}x"


def test_e10_audit_overhead(monkeypatch):
    """State-audit cost guard: the same exhaustive walk with no auditor
    (the default every verification run takes) and with a
    :class:`~repro.obs.audit.StateAuditor` attached.  The audit is opt-in;
    this bench pins the disabled path to the E10 envelope and bounds the
    enabled ratio.  Beside the ratio, exact call counts pin the memo: the
    auditor hashes one ``configuration()`` snapshot per distinct
    ``System.identity()``, 142 over this walk's 326 visited nodes and
    511 over the 1,957 nodes of E10's 720-execution O(2,1) walk.
    """
    from repro.obs import audit
    from repro.obs.audit import StateAuditor

    inputs = [f"v{i}" for i in range(5)]
    spec = set_consensus_spec(1, 3, inputs)  # 120 executions, fast

    def walk(auditor=None):
        explorer = Explorer(
            spec, max_depth=8, observers=[] if auditor is None else [auditor]
        )
        return sum(1 for _ in explorer.executions()), explorer.stats

    walk()  # warm-up

    def timed(make_auditor, repeat=3):
        best = float("inf")
        count = 0
        for _ in range(repeat):
            start = time.perf_counter()
            count, _stats = walk(make_auditor())
            best = min(best, time.perf_counter() - start)
        return best, count

    disabled_seconds, count = timed(lambda: None)
    enabled_seconds, audited_count = timed(
        lambda: StateAuditor(spec, value_alphabet=inputs, max_pairs=64)
    )

    ratio = enabled_seconds / disabled_seconds if disabled_seconds else float("inf")
    disabled_rate = count / disabled_seconds if disabled_seconds else float("inf")
    print(
        f"\naudit overhead: disabled {disabled_seconds:.4f}s "
        f"({disabled_rate:,.0f} executions/s), enabled {enabled_seconds:.4f}s, "
        f"ratio {ratio:.2f}x"
    )
    assert count == 120 and audited_count == 120
    # Off by default must mean free: with no observers the per-node hook
    # loop is empty, so the disabled walk stays in the E10 envelope.
    assert disabled_rate > 200, (
        f"disabled-path rate fell to {disabled_rate:,.0f} executions/s"
    )
    # The enabled path pays one fingerprint pair per distinct identity
    # plus forked pair probes; a blow-up beyond this bound means the memo
    # or the sampling caps stopped working.  Measured 3.6-7.9x over 10
    # runs (2-vCPU Xeon, CPython 3.11); bound ~2x worst.
    assert ratio < 16, f"audit overhead grew: {ratio:.2f}x"

    fingerprinted = []
    fingerprints = audit.config_fingerprints

    def counted_fingerprints(*args, **kwargs):
        fingerprinted.append(1)
        return fingerprints(*args, **kwargs)

    monkeypatch.setattr(audit, "config_fingerprints", counted_fingerprints)
    auditor = StateAuditor(spec, value_alphabet=inputs, max_pairs=64)
    assert walk(auditor)[0] == 120
    assert (auditor.configurations, len(fingerprinted)) == (326, 142)

    del fingerprinted[:]
    headline_inputs = [f"v{i}" for i in range(6)]  # as in run_e10_runtime
    headline_spec = set_consensus_spec(2, 1, headline_inputs)
    auditor = StateAuditor(
        headline_spec, value_alphabet=headline_inputs, max_pairs=64
    )
    explorer = Explorer(headline_spec, max_depth=10, observers=[auditor])
    assert sum(1 for _ in explorer.executions()) == 720
    assert (auditor.configurations, len(fingerprinted)) == (1957, 511)


def test_e10_execset_overhead(monkeypatch):
    """Execution-set digest cost guard: the same exhaustive walk with no
    recorder (what every Explorer constructed in code gets by default)
    and with an :class:`~repro.obs.execset.ExecutionSetRecorder`
    observing (what ``repro explore`` enables by default).  The disabled
    path runs an empty observer loop per execution and must stay free;
    the enabled path pays one ``System.identity()`` lookup and one
    counter increment per execution, plus a snapshot, two fingerprint
    hashes and an exhibit id per distinct final configuration (this
    walk's 120 executions end in 30), and its ratio is bounded.  Beside the ratio, exact call counts pin the
    structure: the recorded walk never merges fault records (each
    execution carries its walk prefix) and fingerprints each distinct
    final configuration once.  perfbench's ``explore-recovery`` workload
    tracks the same cost end to end.
    """
    from repro.obs import execset
    from repro.obs.execset import ExecutionSetRecorder
    from repro.runtime import execution

    inputs = [f"v{i}" for i in range(5)]
    spec = set_consensus_spec(1, 3, inputs)  # 120 executions, fast

    def walk(recorder=None):
        explorer = Explorer(
            spec, max_depth=8, observers=[] if recorder is None else [recorder]
        )
        return sum(1 for _ in explorer.executions()), recorder

    walk()  # warm-up

    def timed(make_recorder, repeat=5):
        best = float("inf")
        count = 0
        recorder = None
        for _ in range(repeat):
            start = time.perf_counter()
            count, recorder = walk(make_recorder())
            best = min(best, time.perf_counter() - start)
        return best, count, recorder

    disabled_seconds, count, _ = timed(lambda: None)
    enabled_seconds, recorded_count, recorder = timed(
        lambda: ExecutionSetRecorder(
            spec_meta={"task": "set-consensus", "n": 1, "k": 3},
            value_alphabet=inputs,
        )
    )

    ratio = enabled_seconds / disabled_seconds if disabled_seconds else float("inf")
    disabled_rate = count / disabled_seconds if disabled_seconds else float("inf")
    print(
        f"\nexecset overhead: disabled {disabled_seconds:.4f}s "
        f"({disabled_rate:,.0f} executions/s), enabled {enabled_seconds:.4f}s, "
        f"ratio {ratio:.2f}x, digest {recorder.digest[:16]}"
    )
    assert count == 120 and recorded_count == 120
    assert recorder.total_records == 30
    assert recorder.total_executions == 120
    # Off in code must mean free: with no observers the per-execution hook
    # loop is empty, so the disabled walk stays in the E10 envelope.
    assert disabled_rate > 200, (
        f"disabled-path rate fell to {disabled_rate:,.0f} executions/s"
    )
    # The enabled path pays an identity lookup and a counter per
    # execution; a blow-up beyond this bound means the identity cache
    # broke.  Measured 1.46-2.76x, median 1.76x, over 10 runs (2-vCPU VM,
    # CPython 3.11).
    assert ratio < 6.5, f"execset overhead grew: {ratio:.2f}x"

    calls = {"merge_fault_decisions": 0, "config_fingerprints": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(execution, "merge_fault_decisions")
    counted(execset, "config_fingerprints")
    count, counted_recorder = walk(
        ExecutionSetRecorder(
            spec_meta={"task": "set-consensus", "n": 1, "k": 3},
            value_alphabet=inputs,
        )
    )
    assert count == 120
    assert counted_recorder.digest == recorder.digest
    assert calls == {"merge_fault_decisions": 0, "config_fingerprints": 30}


def test_e10_linearizability_checker_width(benchmark):
    """Checker cost on a register history with 8 concurrent operations."""
    events = []
    for i in range(4):
        events.append(
            HistoryEvent(
                pid=i, obj="r", method="write", args=(f"w{i}",),
                response=None, invoked_at=0, responded_at=100,
            )
        )
        events.append(
            HistoryEvent(
                pid=4 + i, obj="r", method="read", args=(),
                response=f"w{i}", invoked_at=0, responded_at=100,
            )
        )
    history = History(events)
    result = benchmark(is_linearizable, history, RegisterSpec())
    assert result
