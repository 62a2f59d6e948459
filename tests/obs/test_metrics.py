"""Tests for the metrics registry and its event-driven collection."""

import pytest

from repro.obs import events
from repro.obs.events import JsonlSink, read_jsonl
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.algorithms.helpers import build_spec
from repro.faults.checkpoint import Checkpoint
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.scheduler import RandomScheduler


def two_process_spec():
    def program(pid, value):
        yield invoke("r", "write", value)
        got = yield invoke("r", "read")
        return got

    return build_spec({"r": RegisterSpec()}, program, ["a", "b"])


@pytest.fixture(autouse=True)
def clean_bus():
    events.set_sink(None)
    yield
    events.set_sink(None)


class TestInstruments:
    def test_counter_labels_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", pid=0).inc()
        registry.counter("steps_total", pid=0).inc(2)
        registry.counter("steps_total", pid=1).inc()
        assert registry.counter("steps_total", pid=0).value == 3
        assert registry.counter("steps_total", pid=1).value == 1
        assert registry.counter_total("steps_total") == 4

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("c", a=1, b=2).inc()
        assert registry.counter("c", b=2, a=1).value == 1

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("frontier").set(10)
        registry.gauge("frontier").set(3)
        assert registry.gauge("frontier").value == 3

    def test_histogram_summary_stats(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15.0
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0
        assert histogram.mean == 5.0

    def test_sum_by_label(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", pid=0, object="r").inc(2)
        registry.counter("steps_total", pid=0, object="s").inc(3)
        registry.counter("steps_total", pid=1, object="r").inc(4)
        assert registry.sum_by_label("steps_total", "pid") == {0: 5, 1: 4}
        assert registry.sum_by_label("steps_total", "object") == {"r": 6, "s": 3}

    def test_is_empty(self):
        registry = MetricsRegistry()
        assert registry.is_empty()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        assert not registry.is_empty()

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", pid=0).inc(7)
        registry.gauge("frontier").set(2)
        registry.histogram("phase_seconds", span="E1").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"steps_total{pid=0}": 7}
        assert snap["gauges"] == {"frontier": 2}
        assert snap["histograms"]["phase_seconds{span=E1}"]["count"] == 1
        assert snap["histograms"]["phase_seconds{span=E1}"]["total"] == 0.5


class TestBucketedHistogram:
    def test_bucket_ladder_is_exponential(self):
        assert BUCKET_BOUNDS[0] == 2.0 ** -13
        assert BUCKET_BOUNDS[-1] == 2.0 ** 20
        for lower, upper in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert upper == 2 * lower

    def test_single_sample_quantiles_are_exact(self):
        histogram = Histogram()
        histogram.observe(5.0)
        assert histogram.p50 == 5.0
        assert histogram.p90 == 5.0
        assert histogram.p99 == 5.0

    def test_quantiles_are_monotone_and_clamped(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.minimum <= histogram.p50 <= histogram.p90
        assert histogram.p90 <= histogram.p99 <= histogram.maximum
        # p50 of 1..100 must land in the right ballpark despite bucketing
        assert 30 <= histogram.p50 <= 70

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(2.0 ** 25)  # beyond the last boundary
        assert histogram.buckets[-1] == 1
        assert histogram.p99 == 2.0 ** 25  # clamped to the observed max

    def test_bucket_counts_sum_to_count(self):
        histogram = Histogram()
        for value in (0.0, 0.001, 1.0, 7.0, 10_000.0, 5_000_000.0):
            histogram.observe(value)
        assert sum(histogram.buckets) == histogram.count == 6


class TestPrometheusRendering:
    def test_exposition_golden(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", pid=0, object="r", method="read").inc(3)
        registry.gauge("enabled_processes").set(2)
        registry.histogram("schedule_depth").observe(4.0)
        assert registry.render_prometheus() == (
            "# TYPE steps_total counter\n"
            'steps_total{method="read",object="r",pid="0"} 3\n'
            "# TYPE enabled_processes gauge\n"
            "enabled_processes 2\n"
            "# TYPE schedule_depth histogram\n"
            'schedule_depth_bucket{le="4"} 1\n'
            'schedule_depth_bucket{le="+Inf"} 1\n'
            "schedule_depth_sum 4\n"
            "schedule_depth_count 1\n"
        )

    def test_gauge_histogram_name_collision_gets_suffix(self):
        registry = MetricsRegistry()
        registry.consume_event("frontier", {"depth": 0, "branches": 3})
        text = registry.render_prometheus()
        assert "# TYPE frontier_branches_current gauge" in text
        assert "# TYPE frontier_branches histogram" in text
        assert "\nfrontier_branches_current 3\n" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", object='a"b').inc()
        assert 'object="a\\"b"' in registry.render_prometheus()

    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        for value in (1.0, 1.5, 3.0):
            registry.histogram("h").observe(value)
        text = registry.render_prometheus()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="4"} 3' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestEventConsumption:
    def test_consume_well_known_events(self):
        registry = MetricsRegistry()
        registry.consume_event("step", {"pid": 0, "object": "r", "method": "read"})
        registry.consume_event("step", {"pid": 0, "object": "r", "method": "read"})
        registry.consume_event("decision", {"pid": 0, "enabled": 2})
        registry.consume_event("schedule_explored", {"depth": 6})
        # A state-cache hit credits its subtree's executions; no depth.
        registry.consume_event("schedule_explored", {"depth": 2, "executions": 7})
        registry.consume_event("schedule_truncated", {"depth": 9})
        registry.consume_event("states_visited", {"object": "X", "states": 42})
        registry.consume_event("valency_subtree", {"executions": 5})
        registry.consume_event("run_verdict", {"verdict": "ok"})
        registry.consume_event("run_end", {"steps": 12})
        registry.consume_event("span_end", {"span": "E1", "seconds": 0.25})
        assert registry.counter_total("steps_total") == 2
        assert registry.counter_total("decisions_total") == 1
        assert registry.counter_total("schedules_explored") == 8
        assert registry.histogram("schedule_depth").count == 1
        assert registry.counter_total("schedules_truncated") == 1
        assert registry.counter_total("states_visited") == 42
        assert registry.counter_total("valency_executions") == 5
        assert registry.sum_by_label("runs_by_verdict", "verdict") == {"ok": 1}
        assert registry.histogram("run_steps").count == 1
        assert registry.histogram("phase_seconds", span="E1").total == 0.25

    def test_unknown_events_are_ignored(self):
        registry = MetricsRegistry()
        registry.consume_event("some_future_event", {"x": 1})
        assert registry.is_empty()

    def test_fault_events_feed_both_counters(self):
        registry = MetricsRegistry()
        registry.consume_event("crash", {"pid": 0, "at_step": 3})
        registry.consume_event("recover", {"pid": 0, "at_step": 5})
        registry.consume_event("crash", {"pid": 1, "at_step": 7})
        assert registry.counter_total("faults_injected") == 2
        assert registry.counter_total("recoveries_total") == 1

    def test_live_run_with_recovery_counts_events(self):
        """A registry on the bus sees the system's crash and recover
        events end to end, not just synthetic consume_event calls."""
        from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE
        from repro.runtime.scheduler import ScriptedScheduler

        registry = MetricsRegistry()
        events.subscribe(registry.consume_event)
        try:
            two_process_spec().run(
                ScriptedScheduler(
                    [(0, 0), (0, CRASH_CHOICE), (0, RECOVER_CHOICE),
                     (0, 0), (0, 0), (1, 0), (1, 0)]
                )
            )
        finally:
            events.unsubscribe(registry.consume_event)
        assert registry.counter_total("faults_injected") == 1
        assert registry.counter_total("recoveries_total") == 1
        digest = registry.digest()
        assert "recoveries_total: 1" in digest

    def test_live_collection_matches_replay(self, tmp_path):
        """A registry fed from the bus and a replay of the JSONL file must
        agree — the trace is a complete account of the run."""
        path = tmp_path / "run.jsonl"
        live = MetricsRegistry()
        sink = JsonlSink(str(path))
        events.subscribe(live.consume_event)
        try:
            with events.use_sink(sink):
                two_process_spec().run(RandomScheduler(3))
        finally:
            events.unsubscribe(live.consume_event)
            sink.close()
        replayed = MetricsRegistry()
        for name, fields in read_jsonl(str(path)):
            replayed.consume_event(name, fields)
        assert live.snapshot() == replayed.snapshot()
        assert replayed.counter_total("steps_total") == 4

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_step_counts_reconcile_with_explorer_stats(self, resumed):
        """The digest's replayed/on-path split is the explorer's own: a
        fresh walk forks instead of replaying, and only rebuilding a
        resumed frontier replays."""
        spec = two_process_spec()
        explorer = (
            Explorer.from_checkpoint(spec, Checkpoint(
                n_processes=2, frontier=[[(0, 0), (1, 0)], [(1, 0), (0, 0)]],
            ))
            if resumed else Explorer(spec)
        )
        sink = events.RingBufferSink(capacity=100_000)
        with events.use_sink(sink):
            list(explorer.executions())
        registry = MetricsRegistry()
        for name, fields in sink.events:
            registry.consume_event(name, fields)
        stats = explorer.stats
        assert stats.steps_on_path > 0
        assert stats.steps_replayed == (2 if resumed else 0)
        assert registry.counter_total("steps_total") == stats.steps_total
        assert (
            registry.counter_total("steps_replayed_total") == stats.steps_replayed
        )
        if resumed:
            # The counts are the whole account: no ratio follows them.
            (line,) = [
                line for line in registry.digest().splitlines()
                if line.startswith("steps_total:")
            ]
            assert line.endswith(
                f"({stats.steps_replayed} replayed + {stats.steps_on_path} "
                "on-path)"
            )

    def test_digest_mentions_core_sections(self):
        registry = MetricsRegistry()
        registry.consume_event("step", {"pid": 0, "object": "r", "method": "w"})
        registry.consume_event("schedule_explored", {"depth": 3})
        registry.consume_event("run_verdict", {"verdict": "ok"})
        registry.consume_event("span_end", {"span": "explore", "seconds": 1.5})
        digest = registry.digest()
        assert "steps_total: 1" in digest
        assert "by process: p0=1" in digest
        assert "schedules_explored: 1" in digest
        assert "runs_by_verdict: ok=1" in digest
        assert "explore" in digest and "phase timings" in digest

    def test_empty_digest(self):
        assert MetricsRegistry().digest() == "(no metrics recorded)"

    def test_digest_includes_gauges(self):
        registry = MetricsRegistry()
        registry.consume_event("decision", {"pid": 0, "enabled": 3})
        registry.consume_event("frontier", {"depth": 1, "branches": 5})
        digest = registry.digest()
        assert "gauges (last): enabled_processes=3, frontier_branches=5" in digest

    def test_digest_includes_percentiles_and_replay_overhead(self):
        registry = MetricsRegistry()
        for depth in (2, 4, 8):
            registry.consume_event("schedule_explored", {"depth": depth})
        registry.consume_event("step", {"pid": 0, "object": "r", "method": "w"})
        registry.consume_event(
            "step", {"pid": 0, "object": "r", "method": "w", "replay": True}
        )
        digest = registry.digest()
        assert "p50" in digest and "p90" in digest and "p99" in digest
        assert "1 replayed + 1 on-path" in digest

    def test_digest_phase_timings_sorted_by_total_time(self):
        registry = MetricsRegistry()
        for span_name, seconds in (
            ("command", 3.0), ("experiment", 0.5), ("explore", 2.0),
            ("experiment", 0.75),
        ):
            registry.consume_event(
                "span_end", {"span": span_name, "seconds": seconds}
            )
        lines = registry.digest().splitlines()
        assert lines[lines.index("phase timings:") + 1:] == [
            "  command        3.000s  (1 call)",
            "  explore        2.000s  (1 call)",
            "  experiment     1.250s  (2 calls)",
        ]

    def test_digest_tallies_labelled_counters_sorted_by_label(self):
        registry = MetricsRegistry()
        for verdict in ("refuted", "proved", "proved"):
            registry.consume_event("run_verdict", {"verdict": verdict})
        for kind in ("steps", "deadline"):
            registry.consume_event("budget_exhausted", {"kind": kind})
        registry.consume_event("witness_captured", {"kind": "violation"})
        lines = registry.digest().splitlines()
        assert "runs_by_verdict: proved=2, refuted=1" in lines
        assert "budget_exhausted_total: deadline=1, steps=1" in lines
        assert "witnesses_captured_total: violation=1" in lines

    def test_digest_lists_at_most_twelve_objects(self):
        registry = MetricsRegistry()
        for index in range(14):
            for _ in range(index + 1):
                registry.consume_event(
                    "step", {"pid": 0, "object": f"o{index}", "method": "m"}
                )
        (by_object,) = [
            line for line in registry.digest().splitlines()
            if line.startswith("  by object:")
        ]
        assert by_object.endswith(" …")
        items = by_object[len("  by object:  "):-len(" …")].split(", ")
        listed = [item.split("=")[0] for item in items]
        assert listed == [f"o{index}" for index in range(13, 1, -1)]

    def test_digest_omits_counters_that_never_fired(self):
        registry = MetricsRegistry()
        registry.consume_event("schedule_explored", {"depth": 1})
        registry.consume_event("crash", {"pid": 1})
        digest = registry.digest()
        assert "schedules_explored: 1" in digest
        assert "faults_injected: 1" in digest
        for silent in ("steps_total", "decisions_total", "recoveries_total",
                       "checkpoints_written_total", "runs_by_verdict"):
            assert silent not in digest

    def test_frontier_event_feeds_histogram(self):
        registry = MetricsRegistry()
        for branches in (1, 2, 4):
            registry.consume_event("frontier", {"depth": 0, "branches": branches})
        histogram = registry.get_histogram("frontier_branches")
        assert histogram is not None and histogram.count == 3
        assert histogram.maximum == 4

    def test_corrupt_numeric_fields_tolerated(self):
        registry = MetricsRegistry()
        registry.consume_event("span_end", {"span": "x", "seconds": None})
        registry.consume_event("run_end", {"steps": "garbage"})
        registry.consume_event("schedule_explored", {"depth": None})
        registry.consume_event("states_visited", {"object": "X", "states": None})
        assert registry.get_histogram("phase_seconds", span="x").count == 1
        assert registry.get_histogram("run_steps").count == 1


class TestHistogramSaturation:
    def test_unsaturated_by_default(self):
        histogram = Histogram()
        histogram.observe(1.0)
        assert not histogram.saturated

    def test_overflow_sample_sets_flag(self):
        histogram = Histogram()
        histogram.observe(2.0 ** 25)
        assert histogram.saturated

    def test_saturated_quantile_clamps_to_last_finite_bound(self):
        # Mixed stream: the tail quantile lands in the unbounded overflow
        # bucket, where interpolation would fabricate precision — it must
        # report the last finite bound (a lower bound), not a value
        # in-between the bound and the observed max.
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(2.0 ** 25)
        assert histogram.saturated
        assert histogram.p99 == BUCKET_BOUNDS[-1]

    def test_single_overflow_sample_stays_exact(self):
        # The min/max clamp lifts a constant stream to the exact value
        # even when it saturates (the documented single-sample guarantee).
        histogram = Histogram()
        histogram.observe(2.0 ** 25)
        assert histogram.p50 == histogram.p99 == 2.0 ** 25

    def test_snapshot_carries_the_flag(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(2.0 ** 25)
        registry.histogram("ok").observe(1.0)
        snap = registry.snapshot()["histograms"]
        assert snap["h"]["saturated"] is True
        assert snap["ok"]["saturated"] is False

    def test_digest_warns_when_saturated(self):
        registry = MetricsRegistry()
        registry.consume_event("run_end", {"steps": 2 ** 25})
        assert "[saturated: percentiles are lower bounds]" in registry.digest()
        clean = MetricsRegistry()
        clean.consume_event("run_end", {"steps": 5})
        assert "saturated" not in clean.digest()

    def test_prometheus_gauge_only_for_saturated_families(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(2.0 ** 25)
        registry.histogram("ok").observe(1.0)
        text = registry.render_prometheus()
        assert "# TYPE h_saturated gauge" in text
        assert "\nh_saturated 1" in text
        assert "ok_saturated" not in text


class TestWitnessEvents:
    def test_witness_captured_counts_by_kind(self):
        registry = MetricsRegistry()
        registry.consume_event("witness_captured", {"kind": "counterexample"})
        registry.consume_event("witness_captured", {"kind": "counterexample"})
        registry.consume_event("witness_captured", {"kind": "existence"})
        by_kind = registry.sum_by_label("witnesses_captured_total", "kind")
        assert by_kind == {"counterexample": 2, "existence": 1}
        assert "witnesses_captured_total: counterexample=2, existence=1" in (
            registry.digest()
        )

    def test_witness_shrunk_feeds_histograms(self):
        registry = MetricsRegistry()
        registry.consume_event(
            "witness_shrunk",
            {"original_length": 9, "min_length": 3, "removed": 6, "tests": 17},
        )
        assert registry.get_histogram("witness_shrink_steps").count == 1
        assert registry.get_histogram("witness_shrink_steps").maximum == 6
        assert registry.get_histogram("witness_min_length").maximum == 3
        digest = registry.digest()
        assert "witness_shrink_steps" in digest
        assert "witness_min_length" in digest
