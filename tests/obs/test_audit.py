"""Tests for the state-space audit (``repro.obs.audit``).

The audit must be (1) correct as a measurement — revisit accounting is
an identity, crash branches never alias crash-free configurations,
pair tallies are consistent; (2) deterministic — byte-identical renders
across runs; (3) inert — attaching an auditor never changes what the
explorer enumerates; and (4) surfaced everywhere the issue promises:
metrics gauges, the text table, and the CLI.
"""

from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.algorithms.set_consensus_from_family import set_consensus_spec
from repro.analysis.commutativity import (
    PAIR_COMMUTE,
    PAIR_SAME_PROCESS,
    PAIR_STATE_DIVERGES,
    PAIR_SWAP_ILLEGAL,
    classify_adjacent_pair,
    classify_pair,
)
from repro.obs import events, ledger
from repro.obs.audit import DepthStats, StateAuditor, render_table, run_audit
from repro.obs.execset import ExecutionSetRecorder
from repro.obs.fingerprint import canonical_fingerprint, configuration_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.objects.set_consensus import SetConsensusSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec

INPUTS3 = ["v0", "v1", "v2"]
INPUTS4 = ["v0", "v1", "v2", "v3"]
INPUTS5 = ["v0", "v1", "v2", "v3", "v4"]

#: ``(max_crashes, max_recoveries)`` of the O(2,1) N=5 walks the memo and
#: fork tests cover: crash-free, crash-stop, and crash-recovery (whose
#: identities carry recovery counts).
FAULT_BUDGETS = [(0, 0), (1, 0), (1, 1)]


def small_spec(inputs=INPUTS3):
    return set_consensus_spec(2, 1, inputs)


class TestRevisitAccounting:
    def test_revisits_are_configurations_minus_distinct(self):
        auditor, _explorer = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert auditor.revisits == auditor.configurations - auditor.distinct_states
        assert auditor.revisits > 0  # N=4 genuinely revisits states
        assert 0.0 < auditor.revisit_ratio < 1.0

    def test_depth_rows_sum_to_totals(self):
        auditor, _explorer = run_audit(small_spec(INPUTS4), max_depth=20)
        rows = auditor.depth_rows()
        assert sum(visits for _d, visits, _r, _ratio in rows) == (
            auditor.configurations
        )
        assert sum(revisits for _d, _v, revisits, _ratio in rows) == (
            auditor.revisits
        )
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_orbit_quotient_never_exceeds_states(self):
        auditor, _explorer = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert 0 < auditor.distinct_orbits <= auditor.distinct_states
        assert 0.0 <= auditor.orbit_savings < 1.0


class TestDeterminism:
    def test_two_audits_render_byte_identical(self):
        first, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        second, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert first.summary() == second.summary()
        assert render_table(first, "x") == render_table(second, "x")


class FakeAuditor:
    """The accessors :func:`render_table` reads, with chosen numbers so
    the formatting is checkable exactly."""

    def __init__(self, depth_rows=(), truncated=False, by_class=None):
        self._depth_rows = list(depth_rows)
        self._truncated = truncated
        self.pairs = SimpleNamespace(by_class=dict(by_class or {}))

    def summary(self):
        summary = {
            "executions": 1234,
            "configurations": 56789,
            "distinct_states": 4321,
            "revisit_ratio": 0.25,
            "distinct_orbits": 1000,
            "orbit_savings": 0.5,
            "pairs_checked": 20000,
            "commuting_fraction": 0.125,
        }
        if self._truncated:
            summary["pairs_truncated"] = True
        return summary

    def depth_rows(self):
        return self._depth_rows


class TestTextTable:
    """The text table is the audit's one rendering."""

    @pytest.mark.parametrize("label, title", [
        ("", "state-space audit"),
        ("O(2,1)", "state-space audit — O(2,1)"),
    ], ids=["unlabelled", "labelled"])
    def test_title_is_underlined_to_its_width(self, label, title):
        lines = render_table(FakeAuditor(), label).splitlines()
        assert lines[:2] == [title, "-" * len(title)]

    def test_headroom_rows_are_formatted(self):
        lines = render_table(FakeAuditor()).splitlines()
        assert lines[2:] == [
            "executions                          1234",
            "configurations visited              56789",
            "distinct states                     4321",
            "revisit ratio (cache headroom)      0.2500",
            "distinct orbits                     1000",
            "orbit savings (symmetry headroom)   0.5000",
            "adjacent pairs classified           20000",
            "commuting fraction (DPOR headroom)  0.1250",
        ]

    @pytest.mark.parametrize("truncated", [False, True])
    def test_sampling_cap_is_flagged_only_when_hit(self, truncated):
        table = render_table(FakeAuditor(truncated=truncated))
        assert ("20000 (sampling capped)" in table) is truncated

    def test_pair_classes_listed_in_name_order(self):
        table = render_table(
            FakeAuditor(by_class={PAIR_STATE_DIVERGES: 7, PAIR_COMMUTE: 3})
        )
        assert table.endswith(
            "\n\npair classes\n"
            f"  {PAIR_COMMUTE}: 3\n"
            f"  {PAIR_STATE_DIVERGES}: 7"
        )
        assert "pair classes" not in render_table(FakeAuditor())

    def test_depth_table_only_when_depths_recorded(self):
        assert "revisit ratio by depth" not in render_table(FakeAuditor())
        table = render_table(
            FakeAuditor(depth_rows=[(0, 1, 0, 0.0), (1, 2500, 1000, 0.4)])
        )
        assert table.endswith(
            "\n\nrevisit ratio by depth\n"
            " depth  visits  revisits  ratio\n"
            "     0       1         0  0.0000\n"
            "     1    2500      1000  0.4000"
        )


class _CrashRecorder(StateAuditor):
    """Auditor that also records whether each fingerprint came from a
    configuration with a crashed process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.by_crash = {}

    def observe_configuration(self, system, depth, children):
        super().observe_configuration(system, depth, children)
        from repro.obs.fingerprint import configuration_fingerprint

        crashed = any(
            process.status.value == "crashed" for process in system.processes
        )
        self.by_crash.setdefault(
            configuration_fingerprint(system), set()
        ).add(crashed)


class TestCrashFingerprints:
    def test_crashed_and_live_configurations_never_collide(self):
        auditor = _CrashRecorder(max_pairs=0)
        explorer = Explorer(
            small_spec(INPUTS3), max_depth=20, max_crashes=1,
            observers=[auditor],
        )
        for _execution in explorer.executions():
            pass
        assert any(True in kinds for kinds in auditor.by_crash.values())
        assert any(False in kinds for kinds in auditor.by_crash.values())
        colliding = [
            fp for fp, kinds in auditor.by_crash.items() if len(kinds) > 1
        ]
        assert not colliding, (
            "crash decisions must be part of the fingerprint; colliding: "
            f"{colliding}"
        )


class TestExplorationUnchanged:
    @pytest.mark.parametrize(
        "make_observers",
        [
            lambda spec: [StateAuditor(spec)],
            lambda spec: [ExecutionSetRecorder(value_alphabet=INPUTS3)],
            lambda spec: [
                StateAuditor(spec),
                ExecutionSetRecorder(value_alphabet=INPUTS3),
            ],
        ],
        ids=["auditor", "execset", "auditor+execset"],
    )
    def test_same_executions_with_and_without_observers(self, make_observers):
        plain = [
            execution.full_decisions
            for execution in Explorer(
                small_spec(INPUTS3), max_depth=20, max_crashes=1
            ).executions()
        ]
        spec = small_spec(INPUTS3)
        observers = make_observers(spec)
        observed = [
            execution.full_decisions
            for execution in Explorer(
                spec, max_depth=20, max_crashes=1, observers=observers
            ).executions()
        ]
        assert plain == observed
        for observer in observers:
            if isinstance(observer, StateAuditor):
                assert observer.executions == len(plain)
            else:
                assert observer.executions == len(plain)


class TestPairClassification:
    def test_same_process_pairs_are_filtered(self):
        spec = small_spec(INPUTS3)
        execution = next(iter(Explorer(spec, max_depth=20).executions()))
        decisions = execution.full_decisions
        doubled = [decisions[0], decisions[0]] + decisions[1:]
        assert (
            classify_adjacent_pair(spec, doubled, 0) == PAIR_SAME_PROCESS
        )

    def test_cross_process_pairs_get_a_known_class(self):
        spec = small_spec(INPUTS3)
        execution = next(iter(Explorer(spec, max_depth=20).executions()))
        decisions = execution.full_decisions
        index = next(
            i
            for i in range(len(decisions) - 1)
            if decisions[i][0] != decisions[i + 1][0]
        )
        assert classify_adjacent_pair(spec, decisions, index) in {
            PAIR_COMMUTE,
            PAIR_STATE_DIVERGES,
            PAIR_SWAP_ILLEGAL,
        }

    def test_pair_tallies_are_consistent(self):
        auditor, _ = run_audit(small_spec(INPUTS4), max_depth=20)
        assert sum(auditor.pairs.by_class.values()) == auditor.pairs.checked
        assert auditor.pairs.commuting <= auditor.pairs.checked
        assert auditor.pairs.commuting == auditor.pairs.by_class.get(
            PAIR_COMMUTE, 0
        )

    def test_max_pairs_cap_sets_truncated(self):
        auditor, _ = run_audit(small_spec(INPUTS4), max_depth=20, max_pairs=2)
        assert auditor.pairs.checked == 2
        assert auditor.pairs.truncated
        assert auditor.summary()["pairs_truncated"] is True
        assert "(sampling capped)" in render_table(auditor)


class _HashEveryNodeAuditor(StateAuditor):
    """Reference auditor: snapshots and hashes every visited node, both
    ways, with no identity memo."""

    def observe_configuration(self, system, depth, children):
        self.configurations += 1
        stats = self.depths.get(depth)
        if stats is None:
            stats = self.depths[depth] = DepthStats()
        stats.visits += 1
        fingerprint = configuration_fingerprint(system)
        count = self._seen.get(fingerprint, 0)
        self._seen[fingerprint] = count + 1
        if count:
            self.revisits += 1
            stats.revisits += 1
        self._orbits.add(canonical_fingerprint(system, self.value_alphabet))


class TestIdentityMemo:
    @pytest.mark.parametrize("alphabet", [None, INPUTS5], ids=["pids", "values"])
    @pytest.mark.parametrize(
        "max_crashes,max_recoveries", FAULT_BUDGETS,
        ids=["crash-free", "crash", "recovery"],
    )
    def test_memoized_audit_equals_hash_every_node(
        self, max_crashes, max_recoveries, alphabet
    ):
        spec = small_spec(INPUTS5)
        # Pair sampling is not under test here (see TestForkClassification).
        memoized = StateAuditor(spec, value_alphabet=alphabet, max_pairs=0)
        reference = _HashEveryNodeAuditor(spec, value_alphabet=alphabet, max_pairs=0)
        explorer = Explorer(
            spec, max_depth=30, max_crashes=max_crashes,
            max_recoveries=max_recoveries, observers=[memoized, reference],
        )
        for _execution in explorer.executions():
            pass
        assert memoized.summary() == reference.summary()
        assert memoized.depth_rows() == reference.depth_rows()
        assert memoized._seen == reference._seen
        assert memoized._orbits == reference._orbits
        # The memo really collapses revisits: fewer entries than nodes.
        assert len(memoized._fingerprints) < memoized.configurations


def _swap_illegal_spec():
    """Two proposers on one nondeterministic (2,2)-set-consensus object.
    After ``p0`` proposes, ``p1``'s proposal has three outcomes; before
    it, only one — so swapping ``(0, 0), (1, 2)`` names a choice that
    does not exist yet."""

    def proposer(value):
        def program():
            return (yield invoke("sc", "propose", value))

        return program

    return SystemSpec(
        {"sc": SetConsensusSpec(2, 2)}, [proposer("a"), proposer("b")]
    )


class TestForkClassification:
    @staticmethod
    def audited(spec, **explorer_options):
        auditor = StateAuditor(spec, max_pairs=10**9)
        explorer = Explorer(spec, max_depth=30, observers=[auditor], **explorer_options)
        for _execution in explorer.executions():
            pass
        return auditor, explorer

    @staticmethod
    def assert_pairs_match_replay(spec, auditor):
        """The pair cache holds every distinct cross-process context,
        keyed by its decisions through the pair; each verdict came from a
        fork advanced along one execution."""
        for key, verdict in auditor._pair_cache.items():
            assert verdict == classify_adjacent_pair(spec, list(key), len(key) - 2), key

    @pytest.mark.parametrize(
        "max_crashes,max_recoveries", FAULT_BUDGETS,
        ids=["crash-free", "crash", "recovery"],
    )
    def test_every_pair_matches_replay_from_root(self, max_crashes, max_recoveries):
        spec = small_spec(INPUTS5)
        auditor, _explorer = self.audited(
            spec, max_crashes=max_crashes, max_recoveries=max_recoveries
        )
        assert not auditor.pairs.truncated
        assert len(auditor._pair_cache) == auditor.pairs.checked > 0
        self.assert_pairs_match_replay(spec, auditor)

    def test_swap_illegal_pairs_match_replay_from_root(self):
        spec = _swap_illegal_spec()
        assert classify_adjacent_pair(spec, [(0, 0), (1, 2)], 0) == PAIR_SWAP_ILLEGAL
        base = spec.build()
        assert classify_pair(base, (0, 0), (1, 2)) == PAIR_SWAP_ILLEGAL
        assert base.trace.full_decisions == []  # the base is never stepped
        auditor, _explorer = self.audited(spec)
        assert auditor.pairs.by_class.get(PAIR_SWAP_ILLEGAL, 0) > 0
        self.assert_pairs_match_replay(spec, auditor)

    def test_probes_are_replay_and_leave_explorer_stats_alone(self):
        def walk(observers):
            sink = events.RingBufferSink(capacity=10**6)
            with events.use_sink(sink):
                explorer = Explorer(
                    small_spec(INPUTS4), max_depth=20, max_crashes=1,
                    observers=observers,
                )
                for _execution in explorer.executions():
                    pass
            steps = [fields for name, fields in sink.events if name == "step"]
            return explorer.stats, steps

        plain_stats, plain_steps = walk([])
        audited_stats, audited_steps = walk([StateAuditor(small_spec(INPUTS4))])
        for name in ("steps_replayed", "steps_on_path", "memo_hits", "generator_resumes"):
            assert getattr(audited_stats, name) == getattr(plain_stats, name), name
        on_path = [fields for fields in audited_steps if not fields.get("replay")]
        assert on_path == plain_steps
        assert len(audited_steps) > len(plain_steps)  # the probes ran, as replay


class TestSurfaces:
    def summary_fields(self):
        auditor, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        payload = auditor.summary()
        payload["depths"] = {"0": [1, 0]}
        payload["pair_classes"] = dict(auditor.pairs.by_class)
        return auditor, payload

    def test_metrics_gauges_from_audit_summary(self):
        auditor, payload = self.summary_fields()
        registry = MetricsRegistry()
        registry.consume_event("audit_summary", payload)
        gauges = registry.snapshot()["gauges"]
        assert gauges["audit_configurations"] == auditor.configurations
        assert gauges["audit_revisit_ratio"] == pytest.approx(
            payload["revisit_ratio"]
        )
        assert gauges["audit_commuting_fraction"] == pytest.approx(
            payload["commuting_fraction"]
        )
        assert gauges["audit_orbit_savings"] == pytest.approx(
            payload["orbit_savings"]
        )
        exposition = registry.render_prometheus()
        assert "audit_revisit_ratio" in exposition


class TestCli:
    ARGS = [
        "audit", "--task", "set-consensus", "--n", "2", "--k", "1",
        "--no-ledger",
    ]

    def test_byte_stable_stdout(self, capsys):
        assert main(list(self.ARGS)) == 0
        first = capsys.readouterr().out
        assert main(list(self.ARGS)) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "revisit ratio" in first
        assert "commuting fraction" in first
        assert "orbit savings" in first

    def test_report_is_stdout_only(self, capsys):
        assert main(list(self.ARGS)) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("state-space audit — ")
        assert captured.err == ""

    def test_pair_stride_is_retired(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(list(self.ARGS) + ["--pair-stride", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ledger_record_carries_no_audit_summary(self, tmp_path, capsys):
        """The audit's account is its stdout table; the ledger records
        the run (command, verdict, executions) and nothing of the table."""
        path = tmp_path / "runs.jsonl"
        assert main(
            ["audit", "--task", "set-consensus", "--n", "2", "--k", "1",
             "--ledger", str(path)]
        ) == 0
        records, _skipped = ledger.read_ledger(str(path))
        assert len(records) == 1
        assert records[0]["command"] == "audit"
        assert records[0]["executions"] > 0
        assert "audit" not in records[0]


class TestSuiteRows:
    def test_headroom_rows_are_informational_and_deterministic(self):
        from repro.experiments.suite import _audit_headroom_row

        row = _audit_headroom_row(
            "E5",
            "state-space audit: O(2,1) set consensus, N=4",
            small_spec(INPUTS4),
            INPUTS4,
        )
        again = _audit_headroom_row(
            "E5",
            "state-space audit: O(2,1) set consensus, N=4",
            small_spec(INPUTS4),
            INPUTS4,
        )
        assert row.ok is True
        assert row.markdown() == again.markdown()
        assert "revisit" in row.measured

    @pytest.mark.parametrize(
        "experiment,n_inputs,max_depth,measured,detail",
        [
            (
                "E5", 5, 20,
                "revisit 0.49, commuting 0.58, orbit savings 0.07 "
                "(326 configs, 166 states)",
                {"revisit_ratio": 0.4908, "commuting_fraction": 0.5781,
                 "orbit_savings": 0.0663},
            ),
            (
                "E10", 6, 10,
                "revisit 0.74, commuting 0.70, orbit savings 0.20 "
                "(1957 configs, 511 states)",
                {"revisit_ratio": 0.7389, "commuting_fraction": 0.6992,
                 "orbit_savings": 0.1957},
            ),
        ],
        ids=["E5", "E10"],
    )
    def test_suite_audit_rows_are_pinned(
        self, experiment, n_inputs, max_depth, measured, detail
    ):
        """The E5/E10 rows as ``repro report`` builds them, pinned to the
        values an auditor gives that hashes every node and replays every
        pair from the root: the identity memo and the fork probes are
        pure speedups."""
        from repro.experiments.suite import _audit_headroom_row, _letters

        inputs = _letters(n_inputs)
        row = _audit_headroom_row(
            experiment, "pinned", set_consensus_spec(2, 1, inputs), inputs,
            max_depth=max_depth,
        )
        assert row.measured == measured
        assert row.detail == detail
