"""Tests for execution-set streams (``repro.obs.execset``)."""

import hashlib
import json
import signal
from pathlib import Path

import pytest

from repro.algorithms.set_consensus_from_family import consensus_spec
from repro.obs import execset
from repro.obs import events
from repro.obs import fingerprint
from repro.obs import ledger
from repro.obs.fingerprint import config_fingerprints, configuration_fingerprint
from repro.obs.witness import resolve_spec
from repro.runtime.explorer import Explorer

INPUTS = ["v0", "v1"]

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "perfbench" / "golden.json").read_text()
)


def tiny_spec():
    """2-process consensus from O(2, 1): small, fault-free, fast."""
    return consensus_spec(2, 1, INPUTS)


def explore_all(execset_recorder=None, max_depth=200, **faults):
    explorer = Explorer(
        tiny_spec(), max_depth=max_depth, strict=False,
        observers=[] if execset_recorder is None else [execset_recorder],
        **faults,
    )
    return list(explorer.executions())


@pytest.fixture(autouse=True)
def _no_dangling_recorder():
    ledger.abandon_run()
    yield
    ledger.abandon_run()


class TestDigestAlgebra:
    def test_empty_set_is_sha256_of_nothing(self):
        assert execset.set_digest([]) == hashlib.sha256(b"").hexdigest()

    def test_order_independent(self):
        configs = ["aa", "bb", "cc"]
        assert execset.set_digest(configs) == \
            execset.set_digest(reversed(configs))

    def test_duplicates_count_once(self):
        assert execset.set_digest(["aa", "bb", "aa"]) == \
            execset.set_digest(["aa", "bb"])

    def test_short_digest_handles_missing(self):
        assert execset.short_digest(None) == "n/a"
        assert execset.short_digest("") == "n/a"
        assert execset.short_digest("ab" * 32) == "ab" * (
            execset.SHORT_DIGEST_LENGTH // 2
        )


class TestExecutionId:
    def test_live_equals_replayed(self):
        spec = tiny_spec()
        execution = explore_all()[0]
        replayed = spec.replay(execution.full_decisions).finalize()
        assert execset.execution_id(replayed) == \
            execset.execution_id(execution)

    def test_distinct_executions_distinct_ids(self):
        ids = {execset.execution_id(e) for e in explore_all()}
        assert len(ids) == len(explore_all())


def reference_records(executions, spec, alphabet=None):
    """The records a recorder must hold after observing ``executions`` in
    order, built uncached: each execution is replayed on ``spec`` and
    fingerprinted from scratch; the first to reach a configuration is its
    exhibit, and every one counts toward ``executions``."""
    expected = {}
    for execution in executions:
        system = spec.replay(execution.full_decisions)
        system.finalize()
        config, canonical = config_fingerprints(system, alphabet)
        if config not in expected:
            decisions = execution.full_decisions
            expected[config] = {
                "config": config,
                "canonical": canonical,
                "distinct": len(execution.distinct_outputs()),
                "done": execution.all_done(),
                "executions": 0,
                "decisions": [list(d) for d in decisions],
                "depth": len(decisions),
                "crashes": len(execution.crashes),
                "recoveries": len(execution.recoveries),
                "id": execset.execution_id(execution),
            }
        expected[config]["executions"] += 1
    return expected


def assert_matches_reference(tmp_path, recorder, executions, spec, alphabet=None):
    """``recorder``'s written records equal :func:`reference_records`,
    one line per configuration, sorted by ``config``."""
    expected = reference_records(executions, spec, alphabet)
    written = recorder.write(str(tmp_path / "reference.jsonl"))
    with open(written, encoding="utf-8") as handle:
        lines = handle.read().splitlines()[1:-1]
    assert lines == [
        json.dumps(expected[config], sort_keys=True, separators=(",", ":"))
        for config in sorted(expected)
    ]


class IdentityProbe:
    """Explorer observer: checks that no two configurations of a walk
    with equal ``identity()`` have different exact fingerprints, at every
    node and at the final configurations."""

    def __init__(self):
        self.nodes = {}
        self.final = {}

    @staticmethod
    def check(system, table):
        config = configuration_fingerprint(system)
        seen = table.setdefault(system.identity(), config)
        assert seen == config, "equal identities, different configurations"

    def observe_configuration(self, system, depth, _children):
        self.check(system, self.nodes)

    def observe(self, _execution, system):
        self.check(system, self.final)


def hang_spec():
    """Three proposers on a 1-consensus object in hang mode: a second
    proposal, or a recovered process proposing again, blocks.  The read
    leaves the objects unchanged, so only the program position tells
    "poised to read" from "poised to write"."""
    from repro.objects.consensus_object import NConsensusSpec
    from repro.objects.register import RegisterSpec
    from repro.runtime.ops import invoke
    from repro.runtime.system import SystemSpec

    def proposer(pid):
        def run():
            decided = yield invoke("c", "propose", pid)
            seen = yield invoke("r", "read")
            yield invoke("r", "write", decided)
            return seen

        return run

    return SystemSpec(
        {"c": NConsensusSpec(1, hang_on_misuse=True), "r": RegisterSpec()},
        [proposer(pid) for pid in range(3)],
    )


class TestConfigurationIdentity:
    """``System.identity()`` keys the recorder's fingerprint cache: equal
    identities must imply equal ``configuration()`` snapshots."""

    @pytest.mark.parametrize(
        "build, faults, distinct",
        [
            # The explore-recovery instance: O(1,2), f=2, r=2.
            (lambda: resolve_spec({"spec": {"task": "set-consensus", "n": 1, "k": 2}}),
             (2, 2), 300),
            (tiny_spec, (2, 2), None),
            (hang_spec, (1, 1), None),
        ],
        ids=["explore-recovery", "consensus", "hang-on-misuse"],
    )
    def test_equal_identity_implies_equal_configuration(self, build, faults, distinct):
        probe = IdentityProbe()
        explorer = Explorer(
            build(), strict=False, max_crashes=faults[0],
            max_recoveries=faults[1], observers=[probe],
        )
        executions = sum(1 for _ in explorer.executions())
        configs = set(probe.final.values())
        assert executions > len(probe.final)
        assert len(probe.final) == len(configs)
        if distinct is not None:
            assert len(configs) == distinct

    def test_hang_spec_blocks(self):
        blocked = [
            e for e in Explorer(hang_spec(), max_crashes=1,
                                max_recoveries=1).executions()
            if "blocked" in {s.value for s in e.statuses.values()}
        ]
        assert blocked

    def test_cached_records_match_uncached(self, tmp_path):
        """Crash-recovery walk: every written record equals its uncached
        reference, including same-step fault runs.

        The walk takes a run of fault decisions in merge order, so a
        same-step "recover p, crash q" with ``p < q`` is walked
        crash-first, and each exhibit's decisions are the walk prefix;
        the reference replays them and rebuilds the fingerprints
        uncached.
        """
        recorder = execset.ExecutionSetRecorder(value_alphabet=INPUTS)
        executions = explore_all(recorder, max_crashes=2, max_recoveries=2)
        assert any(
            recovered_at == crashed_at and recovered < crashed
            for execution in executions
            for recovered_at, recovered in execution.recoveries
            for crashed_at, crashed in execution.crashes
        )
        assert len(recorder.records) < len(executions) == recorder.executions
        assert_matches_reference(tmp_path, recorder, executions, tiny_spec(), INPUTS)

    def test_blocked_executions_match_reference(self, tmp_path):
        recorder = execset.ExecutionSetRecorder()
        executions = list(Explorer(
            hang_spec(), strict=False, max_crashes=1, max_recoveries=1,
            observers=[recorder],
        ).executions())
        assert any(
            "blocked" in {s.value for s in e.statuses.values()}
            for e in executions
        )
        assert_matches_reference(tmp_path, recorder, executions, hang_spec())


class TestRecorderCost:
    """Exact-count gate: per execution the recorder does one identity
    lookup and one counter increment; fingerprints, exhibit ids and every
    sha256 run once per distinct final configuration."""

    @pytest.mark.parametrize(
        "workload, n, k, faults, executions",
        [
            ("explore-recovery", 1, 2, (2, 2), 6540),
            ("serve-worker", 2, 1, (1, 0), 5040),
        ],
    )
    def test_walk_call_counts(self, monkeypatch, tmp_path, workload, n, k,
                              faults, executions):
        from repro.runtime import execution

        calls = {"merge_fault_decisions": 0, "config_fingerprints": 0,
                 "content_id": 0, "sha256": 0}

        def counted(module, name, key=None):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(execution, "merge_fault_decisions")
        counted(execset, "config_fingerprints")
        counted(execset, "content_id")
        counted(fingerprint.hashlib, "sha256")
        meta = {"task": "set-consensus", "n": n, "k": k}
        spec = resolve_spec({"spec": meta})
        recorder = execset.ExecutionSetRecorder(
            spec_meta=meta,
            value_alphabet=[f"v{i}" for i in range(spec.n_processes)],
        )
        explorer = Explorer(
            spec, max_depth=60, strict=False, max_crashes=faults[0],
            max_recoveries=faults[1], observers=[recorder],
        )
        assert sum(1 for _ in explorer.executions()) == executions
        golden = GOLDEN[workload]
        configs = golden["configs"]
        # Two fingerprints and one exhibit id per configuration.
        assert calls == {"merge_fault_decisions": 0, "config_fingerprints": configs,
                         "content_id": configs, "sha256": 3 * configs}
        assert sum(r["executions"] for r in recorder.records.values()) == executions
        path = recorder.write(str(tmp_path / "set.jsonl"))
        assert calls["sha256"] < 3 * configs + 10
        with open(path, encoding="utf-8") as handle:
            footer = json.loads(handle.read().splitlines()[-1])
        assert footer["records"] == configs
        assert footer["executions"] == executions
        assert footer["digest"] == golden["configs_digest"]


class _NodeCounter:
    """Counts the nodes a walk expands; takes credit, so the walk stays
    state-cached."""

    def __init__(self):
        self.nodes = 0

    def observe_configuration(self, system, depth, children):
        self.nodes += 1

    def credit(self, identity, n):
        pass


class TestCachedRecorderCost:
    """Exact-count gate for the state-cached walk (``Explorer.run``):
    :meth:`observe` runs once per leaf the walk visits, fingerprints once
    per distinct final configuration, and a revisited subtree is credited
    from its key alone: no hit forks a system or applies a decision."""

    @pytest.mark.parametrize(
        "workload, n, k, faults, executions, counts",
        [
            # (observe calls, steps_on_path, systems_forked, cache_hits)
            ("explore-recovery", 1, 2, (2, 2), 6540, (416, 922, 1028, 1792)),
            ("serve-worker", 2, 1, (1, 0), 5040, (336, 1466, 1469, 2398)),
        ],
    )
    def test_walk_call_counts(self, monkeypatch, workload, n, k, faults,
                              executions, counts):
        calls = {"observe": 0, "config_fingerprints": 0}
        real_observe = execset.ExecutionSetRecorder.observe
        real_fingerprints = execset.config_fingerprints

        def observe(recorder, execution, system):
            calls["observe"] += 1
            real_observe(recorder, execution, system)

        def fingerprints(*args, **kwargs):
            calls["config_fingerprints"] += 1
            return real_fingerprints(*args, **kwargs)

        monkeypatch.setattr(execset.ExecutionSetRecorder, "observe", observe)
        monkeypatch.setattr(execset, "config_fingerprints", fingerprints)
        meta = {"task": "set-consensus", "n": n, "k": k}
        spec = resolve_spec({"spec": meta})
        recorder = execset.ExecutionSetRecorder(
            spec_meta=meta,
            value_alphabet=[f"v{i}" for i in range(spec.n_processes)],
        )
        counter = _NodeCounter()
        stats = Explorer(
            spec, max_depth=60, strict=False, max_crashes=faults[0],
            max_recoveries=faults[1], observers=[recorder, counter],
        ).run()
        golden = GOLDEN[workload]
        observed, steps, forked, hits = counts
        assert calls == {"observe": observed,
                         "config_fingerprints": golden["configs"]}
        assert (stats.steps_on_path, stats.systems_forked, stats.cache_hits) \
            == (steps, forked, hits)
        # Every decision applied makes a node the walk expands (the root
        # is built, not applied), and so does every fork: a hit does
        # neither.
        applied = stats.steps_on_path + stats.faults_injected \
            + stats.recoveries_injected
        assert applied == counter.nodes - 1
        assert stats.systems_forked <= counter.nodes
        assert stats.executions == recorder.executions == executions
        assert recorder.digest == golden["configs_digest"]

    def test_serve_worker_argv_is_cached(self, tmp_path, monkeypatch):
        """The serve worker's whole command line (trace, checkpoint,
        witness dir, ledger, execset) costs what the bare recorder walk
        above costs: the trace's heartbeat takes credit."""
        from repro.__main__ import main
        from repro.obs.jobs import Job, JobManager, validate_spec

        observed = []
        real_observe = execset.ExecutionSetRecorder.observe

        def observe(recorder, execution, system):
            observed.append(1)
            real_observe(recorder, execution, system)

        monkeypatch.setattr(execset.ExecutionSetRecorder, "observe", observe)
        job = Job(
            id="job-0001",
            spec=validate_spec(
                {"task": "set-consensus", "n": 2, "k": 1, "max_crashes": 1}
            ),
            job_dir=str(tmp_path / "job-0001"),
            attempts=1,
        )
        manager = JobManager(str(tmp_path / "data"), max_workers=1)
        try:
            argv = manager.worker_argv(job, resume=False)
        finally:
            manager.drain(timeout=5)
        assert main(argv) == 0
        records, _skipped = ledger.read_ledger(manager.ledger_path)
        record = records[-1]
        assert (record["executions"], record["steps"], record["systems_forked"],
                record["cache_hits"], len(observed)) == (5040, 1466, 1469, 2398, 336)
        with open(job.trace_path(1), encoding="utf-8") as trace:
            events_seen = [json.loads(line)["event"] for line in trace]
        # No hit forks or applies: each step or crash makes an expanded
        # node (a ``frontier`` event), all but the root.
        assert events_seen.count("step") == 1466
        assert events_seen.count("step") + events_seen.count("crash") \
            == events_seen.count("frontier") - 1
        footer = execset.read_execset(job.execset_path(1)).footer
        assert footer["digest"] == GOLDEN["serve-worker"]["configs_digest"]


#: The ``config`` column of the streams the earlier ``repro-execset/1``
#: recorder wrote for each CLI walk the CI smoke pins: (distinct
#: configurations, sha256 of the sorted column joined by newlines).  A
#: ``/2`` stream of the same walk must hold exactly that set, so its
#: footer digest is this sha256.
EXECUTION_ID_STREAM_CONFIGS = {
    "a": (48, "3aa0c031e121b05e833d2b268dda582c836c7ee8d85c6349ebe61c3939cc6599"),
    "short": (6, "18eb576f13123a20311bb9985215a3194f626d770d2e7e695e67ff0f7bce3e71"),
    "rec": (300, "e035fd6507b0d5bd6d1839361046c71224be51f9ce9f9c7a0361117681a33f1f"),
    "rec-r1": (160, "569fdb3fab5735bbac8b2a18eadf5fb8b5b8fba8e5b83641f9070246c0810e35"),
    "crash": (192, "22705ed6ba66072448ac53feeceb9a284651ee2f64869b181b72109919c91e6e"),
}

#: The first session of the ``rec`` walk cut by ``--max-steps 400``: 161
#: configurations reached by its 1,220 executions.  Measured on the
#: state-cached walk (no execution-id stream was written for this cut).
BUDGET_CUT_CONFIGS = (
    161, "2bed5098ee5df85c3fc5eef26aeb33ebc925d098b005af468da61ff2d35a4fe2"
)

#: The first session of the ``a`` walk cut by a SIGINT at its 250th
#: step: 24 configurations reached by its 324 executions.  Measured on
#: the state-cached walk, which a traced walk takes too.
SIGINT_CUT_CONFIGS = (
    24, "c1108d12cf1e5af9052591659bb7df59c1a978b312943469e08e5ef034059ae2"
)

CLI_WALKS = {
    "a": ["--n", "2", "--k", "1"],
    "short": ["--n", "2", "--k", "1", "--max-depth", "1"],
    "rec": ["--n", "1", "--k", "2", "--max-crashes", "2", "--max-recoveries", "2"],
    "rec-r1": ["--n", "1", "--k", "2", "--max-crashes", "2", "--max-recoveries", "1"],
    "crash": ["--n", "2", "--k", "1", "--max-crashes", "1"],
}


def read_configs(*paths):
    configs = set()
    for path in paths:
        configs |= set(execset.read_execset(str(path)).records)
    return configs


class TestEquivalenceWithExecutionIdStreams:
    """Each CI-pinned walk records the same configurations as the
    execution-id stream it replaces."""

    @pytest.mark.parametrize("name", sorted(CLI_WALKS))
    def test_cli_walk(self, tmp_path, name):
        from repro.__main__ import main

        path = tmp_path / f"{name}.jsonl"
        assert main(["explore", "--task", "set-consensus", *CLI_WALKS[name],
                     "--no-ledger", "--execset-out", str(path)]) == 0
        count, digest = EXECUTION_ID_STREAM_CONFIGS[name]
        parsed = execset.read_execset(str(path))
        assert len(read_configs(path)) == count
        assert parsed.footer["digest"] == digest == parsed.own_digest

    def test_budget_cut_and_resume(self, tmp_path, capsys):
        """The CI smoke's budget cut: the state-cached walk executes
        922 steps, so a budget of 400 cuts it mid-walk."""
        from repro.__main__ import main

        checkpoint = str(tmp_path / "ck.jsonl")
        ledger_path = str(tmp_path / "runs.jsonl")
        common = ["--ledger", ledger_path]
        assert main(["explore", "--task", "set-consensus", *CLI_WALKS["rec"],
                     "--max-steps", "400", "--checkpoint", checkpoint,
                     "--execset-out", str(tmp_path / "b1.jsonl"), *common]) == 3
        assert main(["explore", "--resume", checkpoint,
                     "--execset-out", str(tmp_path / "b2.jsonl"), *common]) == 0
        first = read_configs(tmp_path / "b1.jsonl")
        assert (len(first), execset.set_digest(first)) == BUDGET_CUT_CONFIGS
        assert execset.read_execset(str(tmp_path / "b1.jsonl")).executions == 1220
        both = read_configs(tmp_path / "b1.jsonl", tmp_path / "b2.jsonl")
        assert (len(both), execset.set_digest(both)) == EXECUTION_ID_STREAM_CONFIGS["rec"]
        resumed = execset.read_execset(str(tmp_path / "b2.jsonl"))
        assert resumed.base_configs == first
        assert resumed.footer["merged_digest"] == EXECUTION_ID_STREAM_CONFIGS["rec"][1]
        assert resumed.footer["total_executions"] == 6540
        # The resume chain diffs as the same set as a fresh walk.
        fresh = str(tmp_path / "fresh.jsonl")
        assert main(["explore", "--task", "set-consensus", *CLI_WALKS["rec"],
                     "--no-ledger", "--execset-out", fresh]) == 0
        records, _ = ledger.read_ledger(ledger_path)
        capsys.readouterr()
        assert main(["diff", fresh, records[-1]["run_id"],
                     "--ledger", ledger_path]) == 0
        assert "SAME SET" in capsys.readouterr().out

    def test_sigint_and_resume(self, tmp_path):
        """The CI smoke's SIGINT cut: a SIGINT raised at the 250th of the
        state-cached walk's 510 steps."""
        from repro.__main__ import main

        checkpoint = str(tmp_path / "ck.jsonl")
        common = ["--ledger", str(tmp_path / "runs.jsonl")]
        fuse = {"steps": 0}

        def tripwire(name, _fields):
            if name == "step":
                fuse["steps"] += 1
                if fuse["steps"] == 250:
                    signal.raise_signal(signal.SIGINT)

        events.subscribe(tripwire)
        try:
            code = main(["explore", "--task", "set-consensus", *CLI_WALKS["a"],
                         "--checkpoint", checkpoint,
                         "--execset-out", str(tmp_path / "s1.jsonl"), *common])
        finally:
            events.unsubscribe(tripwire)
        assert code == 3
        assert main(["explore", "--resume", checkpoint,
                     "--execset-out", str(tmp_path / "s2.jsonl"), *common]) == 0
        first = read_configs(tmp_path / "s1.jsonl")
        assert (len(first), execset.set_digest(first)) == SIGINT_CUT_CONFIGS
        both = read_configs(tmp_path / "s1.jsonl", tmp_path / "s2.jsonl")
        assert (len(both), execset.set_digest(both)) == EXECUTION_ID_STREAM_CONFIGS["a"]


class TestRecorderRoundtrip:
    def write_stream(self, tmp_path, name="a.jsonl", **kwargs):
        recorder = execset.ExecutionSetRecorder(
            path=str(tmp_path / name),
            spec_meta={"task": "consensus", "n": 2, "k": 1},
            value_alphabet=INPUTS,
            **kwargs,
        )
        explore_all(execset_recorder=recorder, max_crashes=1)
        recorder.write()
        return recorder

    def test_roundtrip_and_consistency(self, tmp_path):
        recorder = self.write_stream(tmp_path)
        parsed = execset.read_execset(str(tmp_path / "a.jsonl"))
        assert parsed.spec == {"task": "consensus", "n": 2, "k": 1}
        assert parsed.own_digest == recorder.digest
        assert parsed.merged_digest == recorder.merged_digest
        assert set(parsed.records) == set(recorder.records)
        assert parsed.executions == recorder.executions
        assert parsed.consistent
        assert not parsed.partial
        assert parsed.skipped == 0

    def test_observe_counts_each_execution_once_per_configuration(self):
        recorder = execset.ExecutionSetRecorder()
        spec = tiny_spec()
        execution = explore_all()[0]
        system = spec.replay(execution.full_decisions)
        system.finalize()
        recorder.observe(execution, system)
        recorder.observe(execution, system)
        assert recorder.total_records == 1
        assert recorder.total_executions == 2

    def test_byte_stable(self, tmp_path):
        """Identical explorations write byte-identical artifacts — the
        file embeds no run id, path, or wall-clock."""
        self.write_stream(tmp_path, "one.jsonl")
        self.write_stream(tmp_path, "two.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == \
            (tmp_path / "two.jsonl").read_bytes()

    def test_resumed_session_unions_its_base(self, tmp_path):
        executions = explore_all(max_crashes=1)
        full = self.write_stream(tmp_path, "full.jsonl")
        half = len(executions) // 2
        spec = tiny_spec()
        first = execset.ExecutionSetRecorder(value_alphabet=INPUTS)
        for execution in executions[:half]:
            system = spec.replay(execution.full_decisions)
            first.observe(system.finalize(execution.full_decisions), system)
        resumed = execset.ExecutionSetRecorder(
            path=str(tmp_path / "resumed.jsonl"), value_alphabet=INPUTS,
            base=first.checkpoint_state(),
        )
        for execution in executions[half:]:
            system = spec.replay(execution.full_decisions)
            resumed.observe(system.finalize(execution.full_decisions), system)
        assert resumed.merged_digest == full.digest
        assert resumed.total_executions == len(executions)
        parsed = execset.read_execset(str(resumed.write()))
        assert parsed.partial
        assert parsed.merged_digest == full.digest
        assert parsed.base_records == len(first.records)
        assert parsed.footer["merged_digest"] == full.digest
        assert_matches_reference(
            tmp_path, resumed, executions[half:], spec, INPUTS
        )

    def test_checkpoint_state_and_ledger_summary(self, tmp_path):
        recorder = self.write_stream(tmp_path)
        assert recorder.checkpoint_state() == {
            "configs": sorted(recorder.records),
            "executions": recorder.total_executions,
        }
        summary = recorder.ledger_summary()
        assert summary["digest"] == recorder.merged_digest
        assert summary["records"] == recorder.total_records
        assert summary["executions"] == recorder.total_executions
        assert summary["path"].endswith("a.jsonl")

    def test_mid_walk_checkpoint_carries_the_set_so_far(self, tmp_path):
        from repro.faults.checkpoint import read_checkpoint

        recorder = execset.ExecutionSetRecorder(value_alphabet=INPUTS)
        path = str(tmp_path / "ck.jsonl")
        explorer = Explorer(
            tiny_spec(), strict=False, max_crashes=1, checkpoint_path=path,
            checkpoint_every=1, observers=[recorder],
        )
        walk = explorer.executions()
        next(walk)
        next(walk)
        checkpoint = read_checkpoint(path)
        walk.close()
        assert not checkpoint.done
        assert checkpoint.executions == 2
        assert checkpoint.execset == {
            "configs": sorted(recorder.records), "executions": 2,
        }

    def test_write_annotates_active_run(self, tmp_path):
        ledger.begin_run(
            str(tmp_path / "runs.jsonl"), "explore", ["explore"]
        )
        self.write_stream(tmp_path)
        record = ledger.finish_run(0)
        assert record["execset"]["records"] > 0
        assert record["execset"]["executions"] > record["execset"]["records"]
        assert len(record["execset"]["digest"]) == 64


class TestTolerantReads:
    def test_read_skips_junk_lines(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(
            json.dumps({"format": execset.FORMAT, "spec": {}}) + "\n"
            "{broken\n"
            + json.dumps({"config": "aa", "depth": 1, "decisions": [[0, 0]]})
            + "\n" + json.dumps({"id": "no-config"})
            + "\n[1, 2]\n"
        )
        parsed = execset.read_execset(str(path))
        assert set(parsed.records) == {"aa"}
        assert parsed.skipped == 3
        assert not parsed.footer
        # No footer to check against: vacuously consistent (a truncated
        # write is reported through ``footer``/``skipped``, not here).
        assert parsed.consistent

    def test_inconsistent_when_footer_disagrees(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": execset.FORMAT, "spec": {}}) + "\n"
            + json.dumps({"config": "aa", "depth": 1, "decisions": [[0, 0]]})
            + "\n"
            + json.dumps(
                {"format": execset.FORMAT, "footer": True, "records": 1,
                 "digest": "f" * 64}
            )
            + "\n"
        )
        parsed = execset.read_execset(str(path))
        assert not parsed.consistent
        assert parsed.merged_digest == execset.set_digest(["aa"])

    def test_peek_footer_missing_file(self, tmp_path):
        assert execset.peek_footer(str(tmp_path / "absent.jsonl")) is None

    def test_peek_footer_reads_last_line(self, tmp_path):
        recorder = execset.ExecutionSetRecorder(path=str(tmp_path / "p.jsonl"))
        spec = tiny_spec()
        execution = explore_all()[0]
        system = spec.replay(execution.full_decisions)
        system.finalize()
        recorder.observe(execution, system)
        recorder.write()
        footer = execset.peek_footer(str(tmp_path / "p.jsonl"))
        assert footer["footer"] is True
        assert footer["records"] == 1
        assert footer["merged_digest"] == recorder.merged_digest
