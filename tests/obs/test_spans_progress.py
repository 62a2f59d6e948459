"""Tests for spans (timing + nesting) and the progress reporter."""

import io

import pytest

from repro.obs import events
from repro.obs.events import RingBufferSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.spans import current_span, span


@pytest.fixture(autouse=True)
def clean_bus():
    events.set_sink(None)
    yield
    events.set_sink(None)


class TestSpans:
    def test_span_times_with_nothing_attached(self):
        assert not events.is_enabled()
        with span("explore", n=2, k=1) as phase:
            pass
        assert phase.seconds is not None and phase.seconds >= 0

    def test_subscribed_registry_gets_one_sample_per_span(self):
        """Phase time reaches a registry only through span_end events:
        one sample per span, nested and failing spans included, the same
        sample a trace replay would observe."""
        registry = MetricsRegistry()
        events.subscribe(registry.consume_event)
        try:
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
                with pytest.raises(ValueError):
                    with span("failing") as failing:
                        raise ValueError("boom")
        finally:
            events.unsubscribe(registry.consume_event)
        for phase in (outer, inner, failing):
            histogram = registry.histogram("phase_seconds", span=phase.name)
            assert histogram.count == 1
            assert histogram.total == phase.seconds

    def test_spans_nest_and_track_current(self):
        assert current_span() is None
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_span_events_carry_depth_and_fields(self):
        sink = RingBufferSink()
        with events.use_sink(sink):
            with span("outer"):
                with span("inner", n=3):
                    pass
        names = [name for name, _ in sink.events]
        assert names == ["span_start", "span_start", "span_end", "span_end"]
        inner_start = sink.events[1][1]
        assert inner_start == {"span": "inner", "depth": 1, "n": 3}
        inner_end = sink.events[2][1]
        assert inner_end["span"] == "inner"
        assert inner_end["seconds"] >= 0
        assert inner_end["error"] is None
        # Spans carry nesting depth and user fields, and no ids.
        assert set(inner_end) == {"span", "seconds", "depth", "error", "n"}

    def test_span_end_reports_exceptions(self):
        sink = RingBufferSink()
        with events.use_sink(sink):
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        end = [fields for name, fields in sink.events if name == "span_end"]
        assert end[0]["error"] == "ValueError"
        assert current_span() is None


class TestSpanMisuseTolerance:
    """Degradation paths: out-of-order exits, unentered exits, and
    current_span() across exceptions must never corrupt the stack."""

    def test_out_of_order_exit_keeps_stack_consistent(self):
        outer = span("outer")
        inner = span("inner")
        outer.__enter__()
        inner.__enter__()
        # Close the *outer* span first — inner is still on the stack.
        outer.__exit__(None, None, None)
        assert current_span() is inner
        inner.__exit__(None, None, None)
        assert current_span() is None
        assert outer.seconds is not None and inner.seconds is not None

    def test_exit_without_enter_emits_span_error(self):
        sink = RingBufferSink()
        with events.use_sink(sink):
            phase = span("never-entered")
            # No assert, no exception, no stack corruption — a span_error
            # event instead (asserts would vanish under python -O).
            phase.__exit__(None, None, None)
        assert phase.seconds is None
        assert current_span() is None
        # Only the span_error: no span_end, so no phase time is observed.
        assert sink.events == [
            ("span_error",
             {"span": "never-entered", "reason": "exited without entering"})
        ]

    def test_double_exit_is_tolerated(self):
        with span("once") as phase:
            pass
        first_seconds = phase.seconds
        phase.__exit__(None, None, None)  # stale exit: stack unaffected
        assert current_span() is None
        assert phase.seconds is not None and phase.seconds >= first_seconds

    def test_current_span_restored_after_nested_exception(self):
        with span("outer") as outer:
            with pytest.raises(RuntimeError):
                with span("inner"):
                    assert current_span() is not outer
                    raise RuntimeError("boom")
            # the failing inner span unwound cleanly
            assert current_span() is outer
        assert current_span() is None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestProgressReporter:
    def test_rate_limited_painting(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=1.0, clock=clock)
        reporter.install()
        try:
            clock.now = 0.5
            events.emit("step", pid=0)  # before the interval: no paint
            assert stream.getvalue() == ""
            clock.now = 1.5
            events.emit("step", pid=0)  # past the interval: paints once
            first = stream.getvalue()
            assert "2 steps" in first
            clock.now = 1.6
            events.emit("step", pid=0)  # throttled again
            assert stream.getvalue() == first
        finally:
            reporter.close()
        assert stream.getvalue().endswith("\n")
        assert "3 steps" in stream.getvalue()

    def test_counts_schedules_states_and_phase(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0, clock=clock)
        reporter.install()
        try:
            events.emit("schedule_explored", depth=3)
            events.emit("schedule_explored", depth=1, executions=4)  # a cache hit
            events.emit("states_visited", states=10)
            events.emit("run_end", steps=5)
            events.emit("span_start", span="E4")
            assert reporter.schedules == 5
            assert reporter.states == 10
            assert reporter.runs == 1
            assert reporter.current_phase == "E4"
            events.emit("span_end", span="E4", seconds=0.1)
            assert reporter.current_phase is None
        finally:
            reporter.close()
        final = stream.getvalue()
        assert "5 schedules" in final
        assert "10 states" in final

    def test_close_unsubscribes(self):
        reporter = ProgressReporter(stream=io.StringIO(), min_interval=0.0)
        reporter.install()
        reporter.close()
        assert not events.is_enabled()
        events.emit("step", pid=0)
        assert reporter.steps == 0
