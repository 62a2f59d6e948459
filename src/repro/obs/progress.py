"""Rate-limited stderr progress for long explorer and suite runs.

A :class:`ProgressReporter` subscribes to the event bus, tallies the
events that indicate forward motion (steps, explored schedules, visited
states, open spans), and repaints a single status line at most every
``min_interval`` seconds — so a multi-minute exhaustive check shows
*why* it is still running without flooding the terminal or slowing the
run (the rate limit is one ``time.monotonic`` call per event).

Wire-up is one line each way::

    reporter = ProgressReporter().install()
    try:
        ...  # any instrumented work
    finally:
        reporter.close()   # unsubscribes and prints the final totals

The CLI exposes this as ``python -m repro <cmd> --progress``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, TextIO

from repro.obs import events as _events


def _fmt_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressReporter:
    """Event-bus subscriber that paints a throttled status line."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.25,
        clock=time.monotonic,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_paint = 0.0
        self._last_width = 0
        self.steps = 0
        self.schedules = 0
        self.states = 0
        self.runs = 0
        self.current_phase: Optional[str] = None
        #: Latest coverage/ETA estimate from ``explore_heartbeat`` events
        #: (``None`` until the explorer's estimator warms up).
        self.coverage: Optional[float] = None
        self.eta_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # Bus integration
    # ------------------------------------------------------------------
    def install(self) -> "ProgressReporter":
        _events.subscribe(self)
        return self

    def close(self) -> None:
        """Unsubscribe and print the final totals on their own line."""
        _events.unsubscribe(self)
        self._paint(final=True)

    def __call__(self, name: str, fields: Dict[str, Any]) -> None:
        if name == "step":
            self.steps += 1
        elif name == "schedule_explored":
            self.schedules += fields.get("executions", 1)
        elif name == "states_visited":
            self.states += fields.get("states", 0)
        elif name == "run_end":
            self.runs += 1
        elif name == "span_start":
            self.current_phase = fields.get("span")
        elif name == "span_end":
            if self.current_phase == fields.get("span"):
                self.current_phase = None
        elif name == "explore_heartbeat":
            coverage = fields.get("coverage")
            if isinstance(coverage, (int, float)) and not isinstance(coverage, bool):
                self.coverage = float(coverage)
            eta = fields.get("eta_seconds")
            if isinstance(eta, (int, float)) and not isinstance(eta, bool):
                self.eta_seconds = float(eta)
        else:
            return
        now = self._clock()
        if now - self._last_paint >= self.min_interval:
            self._last_paint = now
            self._paint()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _line(self) -> str:
        elapsed = self._clock() - self._started
        parts = [f"{self.steps:,} steps"]
        if self.schedules:
            parts.append(f"{self.schedules:,} schedules")
        if self.runs:
            parts.append(f"{self.runs:,} runs")
        if self.states:
            parts.append(f"{self.states:,} states")
        if self.current_phase:
            parts.append(f"phase {self.current_phase}")
        if self.coverage is not None:
            parts.append(f"~{self.coverage:.0%} covered")
        if self.eta_seconds is not None:
            parts.append(f"ETA {_fmt_eta(self.eta_seconds)}")
        parts.append(f"{elapsed:.1f}s")
        return "progress: " + " · ".join(parts)

    def _paint(self, final: bool = False) -> None:
        line = self._line()
        pad = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        end = "\n" if final else ""
        try:
            self.stream.write("\r" + line + pad + end)
            self.stream.flush()
        except (ValueError, OSError):
            pass  # stream already closed (e.g. interpreter teardown)
