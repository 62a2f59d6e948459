"""Online coverage and ETA estimation for exhaustive explorations.

An exhaustive DFS knows exactly what it has done (executions yielded) but
not what remains — the tree is only discovered as it is walked.  This
module turns the observables the walk *does* have into a live estimate:

* **rate** — an exponentially-weighted moving average of executions per
  second, computed from successive heartbeats (robust to the bursty
  progress of replay-based DFS);
* **remaining work** — a frontier-weighted bound: every pending prefix at
  depth ``d`` is assumed to expand into roughly ``b ** (L - d)`` maximal
  executions, where ``b`` is the mean branching factor observed so far
  and ``L`` the mean depth of completed executions.  Shallow pending
  prefixes therefore weigh exponentially more than nearly-finished ones,
  which is exactly how DFS frontiers behave;
* **ETA / coverage** — remaining over rate, and done over done+remaining.

The estimator is deterministic given its inputs: the :class:`Heartbeat`
observer feeds it on every traced explorer walk and embeds the outputs in
``explore_heartbeat`` events, so a replayed trace reconstructs the same
estimates the live run showed (see
:meth:`repro.obs.metrics.MetricsRegistry.consume_event`).

Estimates are heuristics, not bounds: a tree whose branching factor
drifts with depth will see the ETA drift too.  They exist so a multi-hour
``repro explore --progress`` answers "roughly how far along is it?" — the
enumeration itself never trusts them.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from repro.obs import events as _obs_events

#: Minimum seconds between two ``explore_heartbeat`` events of one walk.
HEARTBEAT_INTERVAL = 0.5

#: Estimates are clamped here — beyond ~1e15 pending executions the
#: number is astronomy, not planning, and float exponentiation overflows.
REMAINING_CAP = 1e15


class CoverageEstimator:
    """Incremental rate/remaining/ETA estimator fed by DFS heartbeats.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor for the execution rate; 1.0 means "latest
        interval only", small values smooth harder.
    """

    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self.rate: Optional[float] = None  # executions / second (EWMA)
        self._last_executions: Optional[int] = None
        self._last_elapsed: Optional[float] = None

    # ------------------------------------------------------------------
    # Updating
    # ------------------------------------------------------------------
    def update(
        self,
        executions: int,
        elapsed: float,
        frontier_depths: Mapping[int, int],
        mean_branch: float,
        mean_leaf_depth: float,
    ) -> Dict[str, Any]:
        """Fold in one heartbeat; return the current estimate fields.

        ``frontier_depths`` maps prefix depth -> count of pending prefixes
        at that depth.  The returned dict holds ``rate``,
        ``remaining_estimate``, ``eta_seconds`` and ``coverage`` — any of
        which may be absent when not yet estimable (first heartbeat, zero
        rate); absent beats garbage.
        """
        if self._last_executions is not None and self._last_elapsed is not None:
            d_exec = executions - self._last_executions
            d_time = elapsed - self._last_elapsed
            if d_time > 0 and d_exec >= 0:
                instant = d_exec / d_time
                if self.rate is None:
                    self.rate = instant
                else:
                    self.rate += self.alpha * (instant - self.rate)
        self._last_executions = executions
        self._last_elapsed = elapsed

        remaining = estimate_remaining(
            frontier_depths, mean_branch, mean_leaf_depth
        )
        out: Dict[str, Any] = {}
        if self.rate is not None:
            out["rate"] = round(self.rate, 3)
        if remaining is not None:
            out["remaining_estimate"] = round(remaining, 1)
            total = executions + remaining
            if total > 0:
                out["coverage"] = round(executions / total, 6)
            if self.rate:
                out["eta_seconds"] = round(remaining / self.rate, 3)
        return out


def estimate_remaining(
    frontier_depths: Mapping[int, int],
    mean_branch: float,
    mean_leaf_depth: float,
) -> Optional[float]:
    """Frontier-weighted remaining-execution estimate.

    Each pending prefix at depth ``d`` contributes
    ``max(1, mean_branch ** (mean_leaf_depth - d))`` expected maximal
    executions (it is at least one execution itself).  ``None`` when the
    inputs cannot support an estimate yet (no branching statistics); an
    empty frontier estimates 0.0 — the walk is done.
    """
    if not frontier_depths:
        return 0.0
    if mean_branch <= 0 or mean_leaf_depth <= 0:
        return None
    base = max(mean_branch, 1.0)
    total = 0.0
    for depth, count in frontier_depths.items():
        levels = mean_leaf_depth - float(depth)
        if levels <= 0 or base == 1.0:
            per_prefix = 1.0
        else:
            try:
                per_prefix = min(base ** levels, REMAINING_CAP)
            except OverflowError:
                per_prefix = REMAINING_CAP
        total += per_prefix * count
        if total >= REMAINING_CAP:
            return REMAINING_CAP
    return total


class Heartbeat:
    """Explorer observer emitting ``explore_heartbeat`` (walk observables
    plus :class:`CoverageEstimator` fields) at most once per
    :data:`HEARTBEAT_INTERVAL`, and once more from :meth:`close` when the
    walk ends with executions no beat has reported yet.  ``frontier`` is
    the walk's live DFS stack.

    It takes ``credit`` from a state-cached walk (see
    :meth:`repro.runtime.explorer.Explorer.run`): a credited subtree's
    executions are in the explorer's totals, but only the leaves the walk
    actually walked go into ``mean_leaf_depth``.
    """

    def __init__(self, explorer: Any, frontier: List[Any]):
        self._explorer = explorer
        self._frontier = frontier
        self._estimator = CoverageEstimator()
        self._walk_started = self._last_heartbeat = time.monotonic()
        self._beat_executions = explorer.total_executions
        self._branch_sum = 0  # branches over all expanded interior nodes
        self._branch_nodes = 0
        self._leaf_depth_sum = 0  # depths of walked executions
        self._leaves = 0
        self._depth = 0

    def observe_configuration(self, system: Any, depth: int, children: int) -> None:
        if children:
            self._branch_sum += children
            self._branch_nodes += 1
        self._depth = depth

    def observe(self, execution: Any, system: Any) -> None:
        self._leaf_depth_sum += self._depth
        self._leaves += 1
        self._beat_if_due()

    def credit(self, identity: Any, n: int) -> None:
        # The explorer has already added the credited executions to its
        # totals, which every beat reads.
        self._beat_if_due()

    def close(self) -> None:
        """The walk ended, finished or interrupted: beat once more if
        the totals moved since the last beat, so the trace ends with
        them however fast the walk ran."""
        if self._explorer.total_executions != self._beat_executions:
            self._beat(time.monotonic())

    def _beat_if_due(self) -> None:
        now = time.monotonic()
        if now - self._last_heartbeat >= HEARTBEAT_INTERVAL:
            self._beat(now)

    def _beat(self, now: float) -> None:
        self._last_heartbeat = now
        stats = self._explorer.stats
        executions = self._beat_executions = self._explorer.total_executions
        depths: Dict[int, int] = {}
        for prefix in self._frontier:
            depths[len(prefix)] = depths.get(len(prefix), 0) + 1
        mean_branch = self._branch_sum / self._branch_nodes if self._branch_nodes else 0.0
        mean_leaf_depth = self._leaf_depth_sum / self._leaves if self._leaves else 0.0
        elapsed = now - self._walk_started
        estimate = self._estimator.update(
            executions=executions,
            elapsed=elapsed,
            frontier_depths=depths,
            mean_branch=mean_branch,
            mean_leaf_depth=mean_leaf_depth,
        )
        _obs_events.emit(
            "explore_heartbeat",
            executions=executions,
            frontier=len(self._frontier),
            frontier_depths=depths,
            mean_branch=round(mean_branch, 3),
            mean_leaf_depth=round(mean_leaf_depth, 3),
            elapsed=round(elapsed, 3),
            max_depth_seen=stats.max_depth_seen,
            steps_on_path=stats.steps_on_path,
            steps_replayed=stats.steps_replayed,
            generator_resumes=stats.generator_resumes,
            memo_hits=stats.memo_hits,
            systems_forked=stats.systems_forked,
            object_applies=stats.object_applies,
            faults_injected=stats.faults_injected,
            recoveries_injected=stats.recoveries_injected,
            **estimate,
        )
