"""Unit tests for the exhaustive explorer (bounded model checking)."""

import math

import pytest

from repro.errors import ExplorationLimitError
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.runtime.explorer import (
    Explorer,
    check_all_executions,
    explore_executions,
    find_execution,
)
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec


def one_step_spec(n_processes: int):
    """Every process writes its pid once: n! schedules."""

    def program(pid):
        def run():
            yield invoke("r", "write", pid)
            return pid

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(p) for p in range(n_processes)])


def race_spec():
    """Two processes write then read; read results expose the interleaving."""

    def program(pid):
        def run():
            yield invoke("r", "write", pid)
            seen = yield invoke("r", "read")
            return seen

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(0), program(1)])


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_factorial_schedules(self, n):
        executions = list(explore_executions(one_step_spec(n)))
        assert len(executions) == math.factorial(n)

    def test_all_executions_are_maximal(self):
        for execution in explore_executions(race_spec()):
            assert execution.all_done()
            assert len(execution) == 4

    def test_distinct_interleavings_distinct_outputs(self):
        outcomes = {
            tuple(sorted(e.outputs.items()))
            for e in explore_executions(race_spec())
        }
        # p reads own write unless the other overwrote in between.
        assert (
            tuple(sorted({0: 0, 1: 1}.items())) in outcomes
        )  # fully serial both read own? no: later writer overwrites
        assert len(outcomes) >= 2

    def test_nondeterministic_objects_branch(self):
        def proposer(value):
            def run():
                decision = yield invoke("sc", "propose", value)
                return decision

            return run

        spec = SystemSpec(
            {"sc": SetConsensusSpec(2, 2)}, [proposer("a"), proposer("b")]
        )
        outcomes = {
            tuple(sorted(e.outputs.items()))
            for e in explore_executions(spec)
        }
        # The second proposer may adopt or keep its own value.
        assert (tuple(sorted({0: "a", 1: "a"}.items()))) in outcomes
        assert (tuple(sorted({0: "a", 1: "b"}.items()))) in outcomes


class TestCheckAndFind:
    def test_check_all_passes(self):
        assert check_all_executions(one_step_spec(3), lambda e: e.all_done()) is None

    def test_check_all_returns_witness(self):
        witness = check_all_executions(
            race_spec(), lambda e: e.outputs[0] == 0
        )
        assert witness is not None
        assert witness.outputs[0] == 1  # p1's write overwrote before p0 read

    def test_witness_replays(self):
        spec = race_spec()
        witness = check_all_executions(spec, lambda e: e.outputs[0] == 0)
        replayed = spec.replay(witness.decisions).finalize()
        assert replayed.outputs == witness.outputs

    def test_find_existence(self):
        found = find_execution(race_spec(), lambda e: e.outputs == {0: 1, 1: 1})
        assert found is not None

    def test_find_returns_none_when_impossible(self):
        assert (
            find_execution(race_spec(), lambda e: e.outputs == {0: 9, 1: 9}) is None
        )


class TestBounds:
    def test_depth_bound_strict_raises(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        with pytest.raises(ExplorationLimitError):
            list(explore_executions(spec, max_depth=5))

    def test_depth_bound_lenient_truncates(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        explorer = Explorer(spec, max_depth=5, strict=False)
        executions = list(explorer.executions())
        assert len(executions) == 1
        assert explorer.stats.truncated == 1

    def test_statistics_populated(self):
        explorer = Explorer(one_step_spec(3))
        list(explorer.executions())
        assert explorer.stats.executions == 6
        assert explorer.stats.max_depth_seen == 3
        assert explorer.stats.steps_on_path > 0
        assert explorer.stats.generator_resumes > 0

    def test_on_path_vs_replayed_accounting(self):
        """The decision tree of one_step_spec(3) has 1+3+6+6 = 16 nodes.
        Each non-root node is its parent's fork plus exactly one
        first-time (on-path) step, so a fresh walk replays nothing."""
        explorer = Explorer(one_step_spec(3))
        list(explorer.executions())
        stats = explorer.stats
        assert stats.steps_on_path == 15
        assert stats.steps_replayed == 0
        assert stats.steps_total == 15

    def test_memo_counters(self):
        """Each of the 3 programs resumes its generator twice (priming,
        then its one write's response); the other 12 of the 15 write
        responses, and nothing else, are memo hits.  One fork per
        execution; 9 distinct (register state, write) pairs: the 3 writes
        on the initial state and the 2 others on each pid's value."""
        explorer = Explorer(one_step_spec(3))
        list(explorer.executions())
        assert explorer.stats.generator_resumes == 6
        assert explorer.stats.memo_hits == 12
        assert explorer.stats.systems_forked == 6
        assert explorer.stats.object_applies == 9

    def test_resumed_frontier_replays_its_prefixes(self):
        """Entries of a resumed frontier have no parent configuration on
        the stack: their prefix is re-applied from the root as replay, and
        only the last decision is on-path."""
        from repro.faults.checkpoint import Checkpoint

        frontier = [[(0, 0), (1, 0)], [(0, 0), (2, 0)]]
        explorer = Explorer.from_checkpoint(
            one_step_spec(3), Checkpoint(n_processes=3, frontier=frontier)
        )
        executions = list(explorer.executions())
        assert [e.schedule for e in executions] == [[0, 2, 1], [0, 1, 2]]
        stats = explorer.stats
        assert stats.steps_replayed == 2  # (0, 0) once per entry
        assert stats.steps_on_path == 4  # each entry's last step + its child


class TestPidFilter:
    def test_filter_prunes_branches(self):
        # Only allow ascending pid order: exactly one schedule survives.
        def ascending_only(system, enabled):
            return [min(enabled)] if enabled else []

        explorer = Explorer(one_step_spec(3), pid_filter=ascending_only)
        executions = list(explorer.executions())
        assert len(executions) == 1
        assert executions[0].schedule == [0, 1, 2]


class TestHeartbeat:
    """The explore_heartbeat telemetry pulse from the DFS loop."""

    @pytest.fixture(autouse=True)
    def every_execution(self, monkeypatch):
        from repro.obs import coverage

        monkeypatch.setattr(coverage, "HEARTBEAT_INTERVAL", 0.0)

    def collect(self, explorer):
        from repro.obs import events

        beats = []

        def listen(name, fields):
            if name == "explore_heartbeat":
                beats.append(dict(fields))

        events.subscribe(listen)
        try:
            self.executions = list(explorer.executions())
        finally:
            events.unsubscribe(listen)
        return beats

    def test_silent_when_bus_disabled(self):
        explorer = Explorer(one_step_spec(2))
        list(explorer.executions())  # must not raise, and nothing to emit to

    def test_one_beat_per_execution_at_zero_interval(self):
        explorer = Explorer(one_step_spec(2))
        beats = self.collect(explorer)
        assert len(beats) == 2  # 2! schedules
        assert beats[-1]["executions"] == 2
        assert beats[-1]["frontier"] == 0

    def test_beat_carries_step_and_memo_counters(self):
        explorer = Explorer(one_step_spec(3))
        last = self.collect(explorer)[-1]
        assert last["steps_on_path"] == 15
        assert last["steps_replayed"] == 0
        assert last["generator_resumes"] == 6
        assert last["memo_hits"] == 12
        assert last["systems_forked"] == 6
        assert last["object_applies"] == 9

    def test_beat_carries_observables_and_estimates(self):
        explorer = Explorer(one_step_spec(3))
        beats = self.collect(explorer)
        first, last = beats[0], beats[-1]
        for key in ("executions", "frontier", "frontier_depths",
                    "mean_branch", "mean_leaf_depth", "elapsed",
                    "max_depth_seen", "faults_injected"):
            assert key in first, key
        assert first["frontier"] > 0
        assert all(
            isinstance(d, int) and isinstance(c, int)
            for d, c in first["frontier_depths"].items()
        )
        # Later beats have branch statistics, so remaining is estimable
        # and shrinks to zero by the final beat.
        assert last["remaining_estimate"] == 0.0
        assert last["coverage"] == 1.0

    @pytest.mark.parametrize("max_depth", [200, 5])
    def test_branch_and_leaf_means_match_the_tree(self, max_depth):
        """O(1,2) f=2 r=2: quiescent nodes are yielded *and* expanded into
        recoveries; at max_depth=5 nodes at the bound are not expanded."""
        from repro.obs.witness import resolve_spec

        spec = resolve_spec({"spec": {"task": "set-consensus", "n": 1, "k": 2}})
        explorer = Explorer(
            spec, max_depth=max_depth, strict=False,
            max_crashes=2, max_recoveries=2,
        )
        widths = []
        branches = explorer._branches

        def recording(system, prefix):
            found = branches(system, prefix)
            if found and len(prefix) < max_depth:
                widths.append(len(found))
            return found

        explorer._branches = recording
        last = self.collect(explorer)[-1]
        leaf_depths = [len(e.full_decisions) for e in self.executions]
        assert last["executions"] == len(leaf_depths)
        assert last["mean_branch"] == round(sum(widths) / len(widths), 3)
        assert last["mean_leaf_depth"] == round(
            sum(leaf_depths) / len(leaf_depths), 3
        )

    def test_long_interval_beats_once_at_the_end(self, monkeypatch):
        """No beat falls due mid-walk; the closing beat still carries the
        final totals."""
        from repro.obs import coverage

        monkeypatch.setattr(coverage, "HEARTBEAT_INTERVAL", 3600.0)
        explorer = Explorer(one_step_spec(3))
        beats = self.collect(explorer)
        assert [(b["executions"], b["frontier"]) for b in beats] == [(6, 0)]
        assert beats[0]["steps_on_path"] == explorer.stats.steps_on_path

    @pytest.mark.parametrize("stop_after, closing", [(0, []), (2, [(2, 2)])])
    def test_interrupted_walk_closes_only_if_totals_moved(
        self, monkeypatch, stop_after, closing
    ):
        """A stopped walk beats once before ``exploration_interrupted``,
        unless it has no executions no beat reported."""
        from repro.obs import coverage, events

        monkeypatch.setattr(coverage, "HEARTBEAT_INTERVAL", 3600.0)
        seen = []

        def listen(name, fields):
            if name == "explore_heartbeat":
                seen.append((fields["executions"], fields["frontier"]))
            elif name == "exploration_interrupted":
                seen.append(name)

        explorer = Explorer(one_step_spec(3))
        if not stop_after:
            explorer.request_stop("test")
        events.subscribe(listen)
        try:
            for count, _execution in enumerate(explorer.executions(), 1):
                if count == stop_after:
                    explorer.request_stop("test")
        finally:
            events.unsubscribe(listen)
        assert seen[-1] == "exploration_interrupted"
        assert seen[:-1] == closing

    def test_cached_walk_reports_credited_totals_and_walked_depths(self):
        """Under ``run()``'s state cache the last beat carries every
        execution, credited ones included, and the mean depth of the
        leaves the walk actually walked."""
        from repro.obs import events
        from repro.obs.witness import resolve_spec

        class WalkedLeaves:
            def __init__(self):
                self.depths = []

            def observe(self, execution, system):
                self.depths.append(len(execution.full_decisions))

            def credit(self, identity, n):
                pass

        spec = resolve_spec({"spec": {"task": "set-consensus", "n": 1, "k": 2}})
        leaves = WalkedLeaves()
        explorer = Explorer(
            spec, strict=False, max_crashes=2, max_recoveries=2,
            observers=[leaves],
        )
        beats = []

        def listen(name, fields):
            if name == "explore_heartbeat":
                beats.append(dict(fields))

        events.subscribe(listen)
        try:
            stats = explorer.run()
        finally:
            events.unsubscribe(listen)
        assert stats.cache_hits > 0
        assert len(leaves.depths) < stats.executions == 6540
        last = beats[-1]
        assert last["executions"] == stats.executions
        assert last["steps_on_path"] == stats.steps_on_path
        assert last["systems_forked"] == stats.systems_forked
        assert last["mean_leaf_depth"] == round(
            sum(leaves.depths) / len(leaves.depths), 3
        )

    def test_run_id_lands_in_checkpoint(self, tmp_path):
        from repro.faults.checkpoint import read_checkpoint

        path = str(tmp_path / "ck.jsonl")
        explorer = Explorer(one_step_spec(2), checkpoint_path=path)
        explorer.run_id = "20260101T000000-abc123"
        list(explorer.executions())
        assert read_checkpoint(path).run_id == "20260101T000000-abc123"
