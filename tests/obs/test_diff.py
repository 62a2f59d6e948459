"""Tests for the execution-set diff engine (``repro.obs.diff``)."""

import json

import pytest

from repro.algorithms.set_consensus_from_family import set_consensus_spec
from repro.obs import diff as obs_diff
from repro.obs import execset
from repro.obs import ledger
from repro.runtime.explorer import Explorer

#: O(2, 1) full-occupancy set consensus: 720 maximal executions of
#: depth 6 — big enough for meaningful set differences, still fast.
INPUTS = [f"v{i}" for i in range(6)]
SPEC_META = {"task": "set-consensus", "n": 2, "k": 1}


def write_stream(path, max_depth=200):
    recorder = execset.ExecutionSetRecorder(
        path=str(path), spec_meta=SPEC_META, value_alphabet=INPUTS
    )
    explorer = Explorer(
        set_consensus_spec(2, 1, INPUTS), max_depth=max_depth, strict=False,
        observers=[recorder],
    )
    for _ in explorer.executions():
        pass
    recorder.write()
    return recorder


@pytest.fixture(autouse=True)
def _no_dangling_recorder():
    ledger.abandon_run()
    yield
    ledger.abandon_run()


@pytest.fixture
def pair(tmp_path):
    """Two identical full streams plus one truncated stream."""
    write_stream(tmp_path / "a.jsonl")
    write_stream(tmp_path / "b.jsonl")
    write_stream(tmp_path / "short.jsonl", max_depth=3)
    return tmp_path


class TestCompare:
    def test_identical_files_exit_0(self, pair):
        report = obs_diff.diff_targets(
            str(pair / "a.jsonl"), str(pair / "b.jsonl")
        )
        assert report["exit_code"] == obs_diff.EXIT_SAME
        assert report["digest"]["equal"] is True
        assert report["same_set"] is True
        assert report["only_in_a"]["count"] == 0
        assert report["only_in_b"]["count"] == 0
        assert report.get("divergence") is None

    def test_truncated_run_exit_1_with_divergence(self, pair):
        report = obs_diff.diff_targets(
            str(pair / "a.jsonl"), str(pair / "short.jsonl")
        )
        assert report["exit_code"] == obs_diff.EXIT_SET_DIFFERS
        assert report["same_set"] is False
        # The depth-3 truncation visits a strict subset at full depth
        # but also records truncated executions the full run never saw:
        # both difference directions are populated.
        assert report["only_in_a"]["count"] > 0
        assert report["only_in_b"]["count"] > 0
        divergence = report.get("divergence")
        assert divergence is not None
        first = divergence["first_divergence"]
        assert first["index"] >= 0
        assert isinstance(first["decision"], list)
        # ASCII lane diagram rendered, each lane closed by its outcome;
        # the text diagram is the exhibit's only rendering.
        assert "=> " in divergence["lanes"]
        assert "lanes_html" not in divergence

    def test_verdict_divergence_exit_2(self, pair):
        a = obs_diff.load_target(str(pair / "a.jsonl"), None)
        b = obs_diff.load_target(str(pair / "b.jsonl"), None)
        a.verdict, b.verdict = "proved", "refuted"
        report = obs_diff.compare(a, b)
        assert report["exit_code"] == obs_diff.EXIT_VERDICT_DIVERGES
        assert report["verdict"]["equal"] is False

    def test_verdict_divergence_beats_set_difference(self, pair):
        a = obs_diff.load_target(str(pair / "a.jsonl"), None)
        b = obs_diff.load_target(str(pair / "short.jsonl"), None)
        a.verdict, b.verdict = "proved", "refuted"
        assert obs_diff.compare(a, b)["exit_code"] == \
            obs_diff.EXIT_VERDICT_DIVERGES

    def test_unknown_target_raises(self, pair):
        with pytest.raises(ValueError):
            obs_diff.diff_targets(
                str(pair / "a.jsonl"), "no-such-run-id",
                ledger_path=str(pair / "absent-ledger.jsonl"),
            )


class TestRenderings:
    def test_table_deterministic_and_informative(self, pair):
        report = obs_diff.diff_targets(
            str(pair / "a.jsonl"), str(pair / "short.jsonl")
        )
        table = obs_diff.render_table(report)
        assert table == obs_diff.render_table(report)
        assert "only in A" in table
        assert "first divergence" in table
        assert "per-depth" in table
        assert report["divergence"]["lanes"] in table

    def test_json_roundtrips(self, pair):
        report = obs_diff.diff_targets(
            str(pair / "a.jsonl"), str(pair / "b.jsonl")
        )
        text = obs_diff.render_json_report(report)
        assert json.loads(text)["exit_code"] == 0
        assert json.loads(text)["format"] == obs_diff.FORMAT

    def test_no_explain_skips_replay(self, pair):
        report = obs_diff.diff_targets(
            str(pair / "a.jsonl"), str(pair / "short.jsonl"), explain=False
        )
        assert report["exit_code"] == obs_diff.EXIT_SET_DIFFERS
        assert report.get("divergence") is None


class TestLedgerTargets:
    def make_ledger(self, tmp_path, entries):
        path = tmp_path / "runs.jsonl"
        for entry in entries:
            ledger.append_record(str(path), dict(entry, format=ledger.FORMAT))
        return str(path)

    def test_resume_chain_merges_to_full_set(self, pair):
        """A run chain (interrupted + resumed) diffs as one merged set
        against a single-session file of the same exploration."""
        full = execset.read_execset(str(pair / "a.jsonl"))
        configs = sorted(full.records)
        half = len(configs) // 2
        first = execset.ExecutionSetRecorder(
            path=str(pair / "part1.jsonl"), spec_meta=SPEC_META
        )
        for config in configs[:half]:
            first.records[config] = dict(full.records[config])
        first.write()
        second = execset.ExecutionSetRecorder(
            path=str(pair / "part2.jsonl"), spec_meta=SPEC_META,
            base=first.checkpoint_state(),
        )
        for config in configs[half:]:
            second.records[config] = dict(full.records[config])
        second.write()
        ledger_path = self.make_ledger(pair, [
            {"run_id": "run-1", "verdict": "inconclusive",
             "execset": first.ledger_summary()},
            {"run_id": "run-2", "parent_run_id": "run-1",
             "verdict": "proved",
             "execset": second.ledger_summary()},
        ])
        report = obs_diff.diff_targets(
            "run-2", str(pair / "a.jsonl"), ledger_path=ledger_path
        )
        assert report["exit_code"] == obs_diff.EXIT_SAME
        assert report["a"]["complete"] is True
        assert report["a"]["records"] == len(configs)
        assert set(report["a"]["run_ids"]) == {"run-1", "run-2"}

    def test_missing_execset_file_reported_incomplete(self, pair):
        ledger_path = self.make_ledger(pair, [
            {"run_id": "run-1", "verdict": "proved",
             "execset": {"digest": "ab" * 32, "records": 7,
                         "path": str(pair / "gone.jsonl")}},
        ])
        report = obs_diff.diff_targets(
            "run-1", str(pair / "a.jsonl"), ledger_path=ledger_path
        )
        assert report["a"]["complete"] is False
        assert report["a"]["digest"] == "ab" * 32
        assert any("gone.jsonl" in note for note in report["a"]["notes"])

    def test_predigest_record_compares_as_na(self, pair):
        """Ledger records from before this format have no execset entry:
        the diff degrades to n/a instead of erroring."""
        ledger_path = self.make_ledger(pair, [
            {"run_id": "run-old", "verdict": "proved", "executions": 42},
        ])
        report = obs_diff.diff_targets(
            "run-old", str(pair / "a.jsonl"), ledger_path=ledger_path
        )
        assert report["a"]["digest"] is None
        assert report["exit_code"] == obs_diff.EXIT_SET_DIFFERS
        table = obs_diff.render_table(report)
        assert "n/a" in table
