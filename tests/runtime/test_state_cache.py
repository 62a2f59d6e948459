"""Equivalence gate for the state-cached walk (``Explorer.run``).

Every output of ``repro explore`` reads only final configurations, so a
walk that credits a revisited subtree instead of walking it again must
write the unreduced walk's ``repro-execset/2`` stream byte for byte and
report the same execution total, depth and truncation count.
"""

from pathlib import Path

import pytest

from repro.algorithms.immediate_snapshot import immediate_snapshot_spec
from repro.obs import events
from repro.obs.audit import StateAuditor
from repro.obs.execset import ExecutionSetRecorder
from repro.obs.witness import resolve_spec
from repro.runtime.explorer import Explorer

#: ``name -> (n, k, max_crashes, max_recoveries, max_depth)`` of a
#: set-consensus walk: the three CI-pinned crash and recovery streams,
#: O(2,1) with no faults and cut at depth 1, O(1,1) with f=1 r=1, and the
#: f=2 r=2 walk under a bound that truncates it mid-tree.
INSTANCES = {
    "rec": (1, 2, 2, 2, 60),
    "rec-r1": (1, 2, 2, 1, 60),
    "crash": (2, 1, 1, 0, 60),
    "no-faults": (2, 1, 0, 0, 60),
    "max-depth-1": (2, 1, 0, 0, 1),
    "o11-f1-r1": (1, 1, 1, 1, 60),
    "rec-truncated": (1, 2, 2, 2, 5),
}


def walk(tmp_path, name, cached, **kwargs):
    """Walk one instance with a recorder attached; its stats and the
    bytes of the stream it wrote."""
    n, k, crashes, recoveries, max_depth = INSTANCES[name]
    meta = {"task": "set-consensus", "n": n, "k": k}
    spec = resolve_spec({"spec": meta})
    recorder = ExecutionSetRecorder(
        spec_meta=meta, value_alphabet=[f"v{i}" for i in range(spec.n_processes)]
    )
    explorer = Explorer(
        spec, max_depth=max_depth, strict=False, max_crashes=crashes,
        max_recoveries=recoveries, observers=[recorder], **kwargs,
    )
    if cached:
        explorer.run()
    else:
        for _execution in explorer.executions():
            pass
    path = recorder.write(str(tmp_path / f"{name}-{cached}.jsonl"))
    return explorer.stats, Path(path).read_bytes()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cached_walk_writes_the_unreduced_stream(tmp_path, name):
    plain, plain_stream = walk(tmp_path, name, cached=False)
    cached, cached_stream = walk(tmp_path, name, cached=True)
    assert cached_stream == plain_stream
    assert (cached.executions, cached.max_depth_seen, cached.truncated) == (
        plain.executions, plain.max_depth_seen, plain.truncated
    )
    assert plain.cache_hits == 0
    assert cached.steps_on_path <= plain.steps_on_path
    if name == "rec-truncated":
        assert cached.truncated > 0 and cached.cache_hits > 0


def test_immediate_snapshot_n3_through_the_recorder():
    """E8's n=3 instance: same configurations, same execution counts."""
    inputs = ["x0", "x1", "x2"]
    spec = immediate_snapshot_spec(inputs)
    walks = []
    for cached in (False, True):
        recorder = ExecutionSetRecorder(value_alphabet=inputs)
        explorer = Explorer(spec, max_depth=36, observers=[recorder])
        if cached:
            explorer.run()
        else:
            for _execution in explorer.executions():
                pass
        counts = {c: r["executions"] for c, r in recorder.records.items()}
        walks.append((explorer.stats, counts))
    (plain, plain_counts), (cached, cached_counts) = walks
    assert cached_counts == plain_counts
    assert cached.executions == plain.executions == 16380
    assert sum(cached_counts.values()) == 16380
    assert cached.cache_hits > 0
    assert cached.steps_on_path < plain.steps_on_path


class TestWhenTheCacheApplies:
    """The cache needs every observer to take ``credit`` (the event bus's
    Heartbeat does) and no ``pid_filter``; otherwise ``run()`` walks
    every execution."""

    def unreduced_steps(self, tmp_path):
        stats, _stream = walk(tmp_path, "rec", cached=False)
        return stats.steps_on_path

    def test_an_auditor_keeps_the_walk_unreduced(self, tmp_path):
        spec = resolve_spec({"spec": {"task": "set-consensus", "n": 1, "k": 2}})
        explorer = Explorer(
            spec, strict=False, max_crashes=2, max_recoveries=2,
            observers=[StateAuditor(spec)],
        )
        stats = explorer.run()
        assert stats.cache_hits == 0
        assert stats.steps_on_path == self.unreduced_steps(tmp_path)

    def test_a_pid_filter_keeps_the_walk_unreduced(self, tmp_path):
        stats, _stream = walk(
            tmp_path, "rec", cached=True, pid_filter=lambda system, pids: pids
        )
        assert stats.cache_hits == 0
        assert stats.steps_on_path == self.unreduced_steps(tmp_path)

    def test_an_event_sink_is_cached(self, tmp_path):
        """With the event bus on, the walk's Heartbeat takes credit too:
        the stream is the unreduced one, ``step`` events count the steps
        taken, and each hit's ``schedule_explored`` carries the
        executions it credits."""
        steps = []
        credited = []

        def listen(name, fields):
            if name == "step":
                steps.append(1)
            elif name == "schedule_explored":
                credited.append(fields.get("executions", 1))

        subscriber = events.subscribe(listen)
        try:
            stats, stream = walk(tmp_path, "rec", cached=True)
        finally:
            events.unsubscribe(subscriber)
        _plain, plain_stream = walk(tmp_path, "rec", cached=False)
        assert stream == plain_stream
        assert stats.cache_hits > 0
        assert len(steps) == stats.steps_on_path
        assert sum(credited) == stats.executions == 6540

    def test_no_observers_is_cached(self):
        spec = resolve_spec({"spec": {"task": "set-consensus", "n": 2, "k": 1}})
        stats = Explorer(spec).run()
        assert stats.executions == 720 and stats.cache_hits > 0
