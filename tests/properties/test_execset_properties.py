"""Property-based tests of execution sets: the digest names a set of
final configurations, and any split of an exploration into shards or
resumed sessions unions back to the fresh set, digest and exhibits."""

import hashlib
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.set_consensus_from_family import set_consensus_spec
from repro.obs.execset import (
    ExecutionSetRecorder,
    absorb,
    execution_id,
    read_execset,
    set_digest,
)
from repro.runtime.explorer import Explorer

INPUTS = ["v0", "v1", "v2"]

configs = st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)
config_lists = st.lists(configs, max_size=30)


def spec_11():
    """O(1, 1) full occupancy: 3 processes."""
    return set_consensus_spec(1, 1, INPUTS)


#: O(1, 1) with one crash and one recovery: 84 maximal executions ending
#: in 30 final configurations, computed once per import.
EXECUTIONS = list(
    Explorer(spec_11(), max_depth=20, max_crashes=1, max_recoveries=1).executions()
)


def fresh_recorder():
    recorder = ExecutionSetRecorder(value_alphabet=INPUTS)
    for _ in Explorer(
        spec_11(), max_depth=20, max_crashes=1, max_recoveries=1,
        observers=[recorder],
    ).executions():
        pass
    return recorder


FRESH = fresh_recorder()


def union(files):
    """The shards' records merged in the order given, and their digest."""
    records = {}
    for parsed in files:
        absorb(records, parsed.records)
    return records, set_digest(records)


def observe_replayed(recorder, executions):
    """Feed ``executions`` to ``recorder`` in order, each at its replayed
    final configuration."""
    spec = spec_11()
    for execution in executions:
        system = spec.replay(execution.full_decisions)
        recorder.observe(system.finalize(execution.full_decisions), system)
    return recorder


class TestDigestLaws:
    @given(config_lists, st.randoms())
    @settings(max_examples=100)
    def test_order_independence(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert set_digest(shuffled) == set_digest(values)

    @given(config_lists)
    @settings(max_examples=100)
    def test_multiplicity_independence(self, values):
        """The digest names the set, not the multiset."""
        assert set_digest(values + values) == set_digest(values)
        assert set_digest(values) == set_digest(set(values))

    @given(config_lists)
    @settings(max_examples=100)
    def test_digest_is_sorted_newline_join(self, values):
        """The same digest ``perfbench`` gates exploration on."""
        text = "\n".join(sorted(set(values)))
        assert set_digest(values) == hashlib.sha256(text.encode()).hexdigest()

    @given(config_lists)
    @settings(max_examples=50)
    def test_distinct_sets_rarely_collide(self, values):
        """Dropping any one element changes the digest."""
        distinct = sorted(set(values))
        whole = set_digest(distinct)
        for index in range(len(distinct)):
            assert set_digest(
                distinct[:index] + distinct[index + 1:]
            ) != whole


class TestSplitsUnionToTheFreshSet:
    def test_fresh_walk_funnels_executions_into_configurations(self):
        assert len(EXECUTIONS) == 84
        assert len(FRESH.records) == 30
        assert FRESH.executions == len(EXECUTIONS)

    @given(st.lists(st.integers(0, len(EXECUTIONS)), max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_session_split(self, points):
        """Cut the walk into consecutive sessions, each resumed from the
        previous one's checkpoint state: the last session's merged set,
        digest and execution count are the fresh walk's."""
        bounds = [0, *sorted(points), len(EXECUTIONS)]
        base = None
        for start, stop in zip(bounds, bounds[1:]):
            session = observe_replayed(
                ExecutionSetRecorder(value_alphabet=INPUTS, base=base),
                EXECUTIONS[start:stop],
            )
            base = session.checkpoint_state()
        assert base["configs"] == sorted(FRESH.records)
        assert base["executions"] == len(EXECUTIONS)
        assert session.merged_digest == FRESH.digest
        assert session.total_records == len(FRESH.records)

    @given(st.lists(st.integers(0, len(EXECUTIONS)), max_size=4), st.randoms())
    @settings(max_examples=20, deadline=None)
    def test_shard_split_with_overlap(self, points, rng):
        """Cut the walk into shards, each extended to overlap the next at
        random: the union of the written shards is the fresh set and
        digest, and the exhibit of each configuration is its fresh
        first path (shards are merged in walk order)."""
        bounds = [0, *sorted(points), len(EXECUTIONS)]
        files = []
        with tempfile.TemporaryDirectory() as directory:
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                stop = min(len(EXECUTIONS), stop + rng.randint(0, 10))
                recorder = observe_replayed(
                    ExecutionSetRecorder(value_alphabet=INPUTS),
                    EXECUTIONS[start:stop],
                )
                path = os.path.join(directory, f"{index}.jsonl")
                files.append(read_execset(recorder.write(path)))
        records, digest = union(files)
        assert digest == FRESH.digest
        assert set(records) == set(FRESH.records)
        for config, record in FRESH.records.items():
            for key in ("id", "depth", "distinct", "done", "canonical"):
                assert records[config][key] == record[key]
            assert [list(d) for d in records[config]["decisions"]] == [
                list(d) for d in record["decisions"]
            ]

    def test_disjoint_shards_sum_to_the_fresh_counts(self, tmp_path):
        half = len(EXECUTIONS) // 2
        files = []
        for name, chunk in (("a", EXECUTIONS[:half]), ("b", EXECUTIONS[half:])):
            recorder = observe_replayed(ExecutionSetRecorder(value_alphabet=INPUTS), chunk)
            files.append(read_execset(recorder.write(str(tmp_path / f"{name}.jsonl"))))
        records, _digest = union(files)
        assert {c: r["executions"] for c, r in records.items()} == {
            c: r["executions"] for c, r in FRESH.records.items()
        }


class TestExecutionIdInvariance:
    @given(st.integers(0, len(EXECUTIONS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_live_equals_replayed(self, index):
        """An execution's id is the same whether captured live by the
        explorer or rebuilt via SystemSpec.replay from its decisions —
        the invariant that lets an exhibit's id survive a replay."""
        execution = EXECUTIONS[index]
        replayed = spec_11().replay(execution.full_decisions).finalize()
        assert execution_id(replayed) == execution_id(execution)
