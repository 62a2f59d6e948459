"""Metrics: counters, gauges, and timing histograms with labels.

A :class:`MetricsRegistry` holds named instruments, each keyed by a label
set (Prometheus-style: ``steps_total{pid=0,object='r',method='read'}``).
Its one source is the event stream: ``python -m repro stats run.jsonl``
feeds an archived JSONL trace (a run's ``--trace-out``) through
:meth:`MetricsRegistry.consume_event`, which derives step/schedule/state
counters and ``phase_seconds`` (from ``span_end`` events), and prints
the digest.  A trace file is thus the complete account of a run — even
of a killed one.

Well-known metric names (see docs/OBSERVABILITY.md):

========================  ==========  ==========================================
name                      kind        meaning
========================  ==========  ==========================================
``steps_total``           counter     simulator steps, by pid/object/method
``steps_replayed_total``  counter     steps re-executing a known prefix (``replay``)
``decisions_total``       counter     scheduler decisions, by pid
``schedules_explored``    counter     maximal executions enumerated
``schedules_truncated``   counter     executions cut off by the depth bound
``states_visited``        counter     object states visited by analyses
``runs_by_verdict``       counter     solvability-checked runs, by verdict
``faults_injected``       counter     crash-stops applied (``crash`` events)
``recoveries_total``      counter     crashed processes revived (``recover``)
``budget_exhausted_total``  counter   budget trips, by kind (deadline/steps)
``checkpoints_written_total``  counter  explorer checkpoints flushed
``explorations_interrupted``  counter  walks cut short by a budget
``witnesses_captured_total``  counter  witness bundles archived, by kind
``schedule_depth``        histogram   length of walked (not credited) executions
``run_steps``             histogram   steps per completed ``System.run``
``witness_shrink_steps``  histogram   decisions removed per ddmin shrink
``witness_min_length``    histogram   decisions left after ddmin
``frontier_branches``     histogram   branching factor at explorer frontiers
``phase_seconds``         histogram   wall time per span, by span name
``explore_executions``    gauge       executions done (latest heartbeat)
``explore_frontier``      gauge       pending DFS prefixes (latest heartbeat)
``explore_rate``          gauge       EWMA executions/second
``explore_eta_seconds``   gauge       estimated seconds to completion
``explore_coverage``      gauge       estimated fraction of the tree done
``suite_experiments_completed``  gauge  experiments finished so far
``audit_configurations``  gauge       configurations visited by the state audit
``audit_distinct_states``  gauge      distinct configuration fingerprints
``audit_revisit_ratio``   gauge       state-cache headroom (``repro audit``)
``audit_distinct_orbits``  gauge      distinct pid-symmetry orbit estimates
``audit_orbit_savings``   gauge       symmetry-reduction headroom
``audit_pairs_checked``   gauge       adjacent pairs classified by the audit
``audit_commuting_fraction``  gauge   DPOR headroom (commuting pair fraction)
``execset_records``       gauge       final configurations in this run's stream
``execset_total_records``  gauge      configurations incl. the resumed base
``execset_streams_written_total``  counter  execset digest streams flushed
========================  ==========  ==========================================

Histograms use the fixed exponential bucket ladder :data:`BUCKET_BOUNDS`
(powers of two, 2^-13 … 2^20) and report p50/p90/p99 via interpolation;
:meth:`MetricsRegistry.render_prometheus` writes the standard text
exposition format for all instruments.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]

#: Fixed exponential bucket boundaries shared by every histogram: powers of
#: two from 2^-13 (~0.12 ms, below any span worth timing) to 2^20 (~1M, above
#: any schedule depth the explorer can enumerate).  One fixed ladder keeps
#: histograms mergeable across runs and traces — a bucket means the same
#: thing in every BENCH/stats file ever written.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-13, 21))


def _num(value: Any, default: float = 0.0) -> float:
    """Coerce an event field to a float, tolerating corrupt traces."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return float(value)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-observed value (e.g. frontier size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value


class Histogram:
    """Bucketed distribution of observed samples.

    Samples land in fixed exponential buckets (:data:`BUCKET_BOUNDS`), so
    the digest can report real percentiles (p50/p90/p99) instead of just
    min/mean/max, at a constant ~35 ints of storage per instrument.
    ``buckets[i]`` counts samples ``<= BUCKET_BOUNDS[i]``; the final slot
    is the overflow bucket.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def saturated(self) -> bool:
        """True when any sample landed in the overflow bucket
        (``> BUCKET_BOUNDS[-1]``).

        A saturated histogram's interpolated percentiles are lower
        bounds, not estimates: the overflow bucket has no upper edge, so
        interpolation inside it is clamped to the last finite bound (and
        to the observed max).  Surfaced in :meth:`MetricsRegistry.
        digest`, :meth:`MetricsRegistry.snapshot`, and as a
        ``<name>_saturated`` gauge in the Prometheus exposition so
        dashboards can see the caveat instead of trusting a fabricated
        p99.
        """
        return self.buckets[-1] > 0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the landing bucket, clamped to the
        exact observed min/max — so single-sample and constant streams
        report the exact value, and estimates never leave the observed
        range.  A quantile landing in the overflow bucket does not
        interpolate (the bucket is unbounded): it reports the last
        finite bound, lifted to the observed min/max clamp — check
        :attr:`saturated` before trusting the tail.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= target:
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                # The overflow bucket has no upper edge; interpolating
                # against the observed max would fabricate precision, so
                # clamp to the last finite bound and let the min/max
                # clamp below lift single-valued streams to exactness.
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else BUCKET_BOUNDS[-1]
                )
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum or 0.0), self.maximum or estimate)
            cumulative += bucket_count
        return self.maximum if self.maximum is not None else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return name, tuple(sorted(labels.items()))


def _label_str(labels: Tuple[Tuple[str, Any], ...]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """A family of named, labelled instruments created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, Counter] = {}
        self._gauges: Dict[LabelKey, Gauge] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def get_histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        """Read-only lookup: the histogram if it exists, else ``None``
        (unlike :meth:`histogram`, never creates the instrument)."""
        return self._histograms.get(_key(name, labels))

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        """Sum of a counter family over all label sets."""
        return sum(
            counter.value
            for (n, _labels), counter in self._counters.items()
            if n == name
        )

    def sum_by_label(self, name: str, label: str) -> Dict[Any, int]:
        """Aggregate a counter family by one label dimension
        (e.g. ``steps_total`` by ``pid``)."""
        totals: Dict[Any, int] = {}
        for (n, labels), counter in self._counters.items():
            if n != name:
                continue
            key = dict(labels).get(label)
            if key is None:
                continue
            totals[key] = totals.get(key, 0) + counter.value
        return totals

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict form of everything, keyed ``name{labels}`` — the
        serializable interchange format for tests and tooling."""
        out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), counter in sorted(
            self._counters.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            out["counters"][name + _label_str(labels)] = counter.value
        for (name, labels), gauge in sorted(
            self._gauges.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            out["gauges"][name + _label_str(labels)] = gauge.value
        for (name, labels), histogram in sorted(
            self._histograms.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            out["histograms"][name + _label_str(labels)] = {
                "count": histogram.count,
                "total": histogram.total,
                "min": histogram.minimum,
                "max": histogram.maximum,
                "mean": histogram.mean,
                "p50": histogram.p50,
                "p90": histogram.p90,
                "p99": histogram.p99,
                "saturated": histogram.saturated,
            }
        return out

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------------
    # Event-driven collection (JSONL replay)
    # ------------------------------------------------------------------
    def consume_event(self, name: str, fields: Dict[str, Any]) -> None:
        """Translate a well-known bus event into metric updates.

        Unknown event names are ignored, so the event schema can grow
        without breaking replay of old traces.
        """
        if name == "step":
            self.counter(
                "steps_total",
                pid=fields.get("pid"),
                object=fields.get("object"),
                method=fields.get("method"),
            ).inc()
            if fields.get("replay"):
                self.counter("steps_replayed_total").inc()
        elif name == "decision":
            self.counter("decisions_total", pid=fields.get("pid")).inc()
            self.gauge("enabled_processes").set(fields.get("enabled", 0))
        elif name == "schedule_explored":
            # A state-cached walk's hit carries the executions it credits;
            # only a walked leaf's depth is an execution's length.
            self.counter("schedules_explored").inc(
                int(_num(fields.get("executions"), 1))
            )
            if "executions" not in fields:
                self.histogram("schedule_depth").observe(_num(fields.get("depth")))
        elif name == "schedule_truncated":
            self.counter("schedules_truncated").inc()
        elif name == "frontier":
            self.gauge("frontier_branches").set(fields.get("branches", 0))
            self.histogram("frontier_branches").observe(_num(fields.get("branches")))
        elif name == "states_visited":
            self.counter(
                "states_visited", object=fields.get("object", "?")
            ).inc(int(_num(fields.get("states"))))
        elif name == "valency_subtree":
            self.counter("valency_executions").inc(int(_num(fields.get("executions"))))
        elif name == "run_verdict":
            self.counter(
                "runs_by_verdict", verdict=fields.get("verdict", "unknown")
            ).inc()
        elif name == "crash":
            self.counter("faults_injected").inc()
        elif name == "recover":
            self.counter("recoveries_total").inc()
        elif name == "budget_exhausted":
            self.counter(
                "budget_exhausted_total", kind=fields.get("kind", "unknown")
            ).inc()
        elif name == "checkpoint_written":
            self.counter("checkpoints_written_total").inc()
            self.gauge("checkpoint_frontier").set(fields.get("frontier", 0))
        elif name == "exploration_interrupted":
            self.counter("explorations_interrupted").inc()
        elif name == "explore_heartbeat":
            self.gauge("explore_executions").set(int(_num(fields.get("executions"))))
            self.gauge("explore_frontier").set(int(_num(fields.get("frontier"))))
            # Estimation fields are optional on the event (absent until the
            # estimator warms up); gauges appear only once they do.
            for field_name, gauge_name in (
                ("rate", "explore_rate"),
                ("eta_seconds", "explore_eta_seconds"),
                ("coverage", "explore_coverage"),
                ("remaining_estimate", "explore_remaining_estimate"),
            ):
                value = fields.get(field_name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.gauge(gauge_name).set(float(value))
        elif name == "suite_progress":
            self.gauge("suite_experiments_total").set(int(_num(fields.get("total"))))
            self.gauge("suite_experiments_completed").set(
                int(_num(fields.get("completed")))
            )
        elif name == "run_end":
            self.histogram("run_steps").observe(_num(fields.get("steps")))
        elif name == "span_end":
            self.histogram(
                "phase_seconds", span=fields.get("span", "?")
            ).observe(_num(fields.get("seconds")))
        elif name == "witness_captured":
            self.counter(
                "witnesses_captured_total", kind=fields.get("kind", "unknown")
            ).inc()
        elif name == "audit_summary":
            for field_name, gauge_name in (
                ("configurations", "audit_configurations"),
                ("distinct_states", "audit_distinct_states"),
                ("revisit_ratio", "audit_revisit_ratio"),
                ("distinct_orbits", "audit_distinct_orbits"),
                ("orbit_savings", "audit_orbit_savings"),
                ("pairs_checked", "audit_pairs_checked"),
                ("commuting_fraction", "audit_commuting_fraction"),
                ("executions", "audit_executions"),
            ):
                value = fields.get(field_name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.gauge(gauge_name).set(value)
        elif name == "execset_digest":
            for field_name, gauge_name in (
                ("records", "execset_records"),
                ("total_records", "execset_total_records"),
            ):
                value = fields.get(field_name)
                if isinstance(value, int) and not isinstance(value, bool):
                    self.gauge(gauge_name).set(value)
            self.counter("execset_streams_written_total").inc()
        elif name == "witness_shrunk":
            self.histogram("witness_shrink_steps").observe(
                _num(fields.get("removed"))
            )
            self.histogram("witness_min_length").observe(
                _num(fields.get("min_length"))
            )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Human-readable metrics summary (the ``stats`` command body)."""
        lines = []
        steps_by_pid = self.sum_by_label("steps_total", "pid")
        steps_by_object = self.sum_by_label("steps_total", "object")
        steps_by_method = self.sum_by_label("steps_total", "method")
        if steps_by_pid:
            total_steps = self.counter_total("steps_total")
            replayed = self.counter_total("steps_replayed_total")
            suffix = ""
            if replayed:
                suffix = (
                    f"  ({replayed} replayed + {total_steps - replayed} "
                    "on-path)"
                )
            lines.append(f"steps_total: {total_steps}{suffix}")
            lines.append(
                "  by process: "
                + ", ".join(
                    f"p{pid}={count}" for pid, count in sorted(steps_by_pid.items())
                )
            )
            top_objects = sorted(
                steps_by_object.items(), key=lambda item: -item[1]
            )[:12]
            lines.append(
                "  by object:  "
                + ", ".join(f"{obj}={count}" for obj, count in top_objects)
                + (" …" if len(steps_by_object) > 12 else "")
            )
            lines.append(
                "  by method:  "
                + ", ".join(
                    f"{m}={count}"
                    for m, count in sorted(steps_by_method.items(), key=lambda i: -i[1])
                )
            )
        for name in ("decisions_total", "schedules_explored", "schedules_truncated",
                     "states_visited", "valency_executions", "faults_injected",
                     "recoveries_total", "checkpoints_written_total",
                     "explorations_interrupted"):
            total = self.counter_total(name)
            if total:
                lines.append(f"{name}: {total}")
        witnesses = self.sum_by_label("witnesses_captured_total", "kind")
        if witnesses:
            lines.append(
                "witnesses_captured_total: "
                + ", ".join(f"{k}={c}" for k, c in sorted(witnesses.items()))
            )
        verdicts = self.sum_by_label("runs_by_verdict", "verdict")
        if verdicts:
            lines.append(
                "runs_by_verdict: "
                + ", ".join(f"{v}={c}" for v, c in sorted(verdicts.items()))
            )
        exhaustions = self.sum_by_label("budget_exhausted_total", "kind")
        if exhaustions:
            lines.append(
                "budget_exhausted_total: "
                + ", ".join(f"{k}={c}" for k, c in sorted(exhaustions.items()))
            )
        for histogram_name, unit in (
            ("schedule_depth", "schedules"),
            ("run_steps", "runs"),
            ("frontier_branches", "frontiers"),
            ("witness_shrink_steps", "shrinks"),
            ("witness_min_length", "witnesses"),
        ):
            histogram = self._histograms.get(_key(histogram_name, {}))
            if histogram is not None and histogram.count:
                caveat = (
                    " [saturated: percentiles are lower bounds]"
                    if histogram.saturated
                    else ""
                )
                lines.append(
                    f"{histogram_name}: min {histogram.minimum:g}, "
                    f"p50 {histogram.p50:.1f}, p90 {histogram.p90:.1f}, "
                    f"p99 {histogram.p99:.1f}, max {histogram.maximum:g} "
                    f"over {histogram.count} {unit}{caveat}"
                )
        gauges = sorted(
            (name + _label_str(labels), gauge.value)
            for (name, labels), gauge in self._gauges.items()
        )
        if gauges:
            lines.append(
                "gauges (last): "
                + ", ".join(f"{name}={value}" for name, value in gauges)
            )
        phases = [
            (dict(labels).get("span", "?"), histogram)
            for (name, labels), histogram in self._histograms.items()
            if name == "phase_seconds"
        ]
        if phases:
            lines.append("phase timings:")
            width = max(len(str(span)) for span, _ in phases)
            for span_name, histogram in sorted(
                phases, key=lambda item: -item[1].total
            ):
                lines.append(
                    f"  {str(span_name):<{width}}  {histogram.total:8.3f}s"
                    f"  ({histogram.count} call"
                    f"{'s' if histogram.count != 1 else ''})"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every instrument.

        Counters and gauges render as single samples, histograms as the
        standard ``_bucket{le=...}`` cumulative series plus ``_sum`` and
        ``_count``.  Leading all-zero buckets are omitted (an omitted
        series is implicitly zero); the ``+Inf`` bucket is always present.
        A gauge whose name collides with a histogram family is exposed
        with a ``_current`` suffix so each family keeps a single type.
        """
        def fmt_value(value: Any) -> str:
            if isinstance(value, float):
                return format(value, ".12g")
            return str(value)

        def fmt_labels(labels: Tuple[Tuple[str, Any], ...], extra: str = "") -> str:
            pairs = [
                "{}=\"{}\"".format(
                    k,
                    str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
                )
                for k, v in labels
            ]
            if extra:
                pairs.append(extra)
            return "{" + ",".join(pairs) + "}" if pairs else ""

        def families(instruments: Dict[LabelKey, Any]) -> Dict[str, List]:
            grouped: Dict[str, List] = {}
            for (name, labels), instrument in instruments.items():
                grouped.setdefault(name, []).append((labels, instrument))
            return {
                name: sorted(entries, key=lambda e: repr(e[0]))
                for name, entries in sorted(grouped.items())
            }

        histogram_names = {name for name, _labels in self._histograms}
        lines: List[str] = []
        for name, entries in families(self._counters).items():
            lines.append(f"# TYPE {name} counter")
            for labels, counter in entries:
                lines.append(f"{name}{fmt_labels(labels)} {fmt_value(counter.value)}")
        for name, entries in families(self._gauges).items():
            exposed = name + "_current" if name in histogram_names else name
            lines.append(f"# TYPE {exposed} gauge")
            for labels, gauge in entries:
                lines.append(f"{exposed}{fmt_labels(labels)} {fmt_value(gauge.value)}")
        for name, entries in families(self._histograms).items():
            lines.append(f"# TYPE {name} histogram")
            for labels, histogram in entries:
                cumulative = 0
                started = False
                for index, bucket_count in enumerate(histogram.buckets[:-1]):
                    cumulative += bucket_count
                    if not started and cumulative == 0:
                        continue
                    started = True
                    le = fmt_labels(
                        labels, extra=f'le="{format(BUCKET_BOUNDS[index], ".12g")}"'
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    if cumulative == histogram.count:
                        break  # remaining buckets are flat; +Inf closes the series
                inf = fmt_labels(labels, extra='le="+Inf"')
                lines.append(f"{name}_bucket{inf} {histogram.count}")
                lines.append(f"{name}_sum{fmt_labels(labels)} {fmt_value(histogram.total)}")
                lines.append(f"{name}_count{fmt_labels(labels)} {histogram.count}")
            # Overflow-saturation caveat, emitted only for families where
            # it bites so existing scrape outputs stay byte-identical.
            flagged = [
                (labels, histogram)
                for labels, histogram in entries
                if histogram.saturated
            ]
            if flagged:
                lines.append(f"# TYPE {name}_saturated gauge")
                for labels, _histogram in flagged:
                    lines.append(f"{name}_saturated{fmt_labels(labels)} 1")
        return "\n".join(lines) + ("\n" if lines else "")

