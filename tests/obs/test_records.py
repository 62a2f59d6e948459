"""Tests for the shared JSONL record layer (``repro.fsutil``).

Every tolerant artifact reader runs the same line loop, and the daemon's
progress tail and its SSE endpoint run the same multi-file tail; these
tests pin both once (the SSE/``TraceTail`` agreement on a real job
directory lives in ``tests/integration/test_service.py``).
"""

import json

import pytest

from repro.fsutil import LineStats, LineTail
from repro.obs import execset, ledger, witness
from repro.obs.events import read_jsonl


def _events(path):
    stats = LineStats()
    records = [dict(fields, event=name) for name, fields in read_jsonl(path, stats)]
    return records, stats.skipped


def _execset(path):
    parsed = execset.read_execset(path)
    return list(parsed.records.values()), parsed.skipped


#: reader name -> (read(path) -> (records, skipped), the n-th record of
#: the format, whether a foreign-format line counts as skipped).  Event
#: traces skip records without an ``event`` key silently, so the format
#: can grow new record kinds.
READERS = {
    "events": (_events, lambda n: {"event": "step", "pid": n}, False),
    "execset": (_execset, lambda n: {"config": f"c{n}", "depth": n}, True),
    "ledger": (
        ledger.read_ledger,
        lambda n: {"format": ledger.FORMAT, "run_id": f"r{n}"},
        True,
    ),
    "witness": (
        witness.read_witness,
        lambda n: {"format": witness.FORMAT, "label": f"w{n}"},
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_tolerant_readers_skip_and_count_the_same_debris(tmp_path, name):
    read, record, foreign_counts = READERS[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text(
        json.dumps(record(0)) + "\n"
        + "\n   \n"  # blank lines: neither records nor corruption
        + json.dumps({"format": "someone-else/1", "x": 1}) + "\n"
        + json.dumps(["not", "an", "object"]) + "\n"
        + json.dumps(record(1)) + "\n"
        + json.dumps(record(2))[:-3],  # the truncated tail of a killed writer
        encoding="utf-8",
    )
    records, skipped = read(str(path))
    assert records == [record(0), record(1)]
    assert skipped == (3 if foreign_counts else 2)


class TestLineTail:
    def test_partial_line_held_until_its_newline(self, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        trace.write_bytes(b"one\ntw")
        tail = LineTail()
        assert list(tail.read([str(trace)])) == [b"one"]
        assert list(tail.read([str(trace)])) == []
        with open(trace, "ab") as handle:
            handle.write(b"o\nthree\n")
        assert list(tail.read([str(trace)])) == [b"two", b"three"]
        assert list(tail.read([str(trace)])) == []

    def test_moves_to_attempt_two_only_once_it_exists(self, tmp_path):
        first = str(tmp_path / "trace-1.jsonl")
        second = str(tmp_path / "trace-2.jsonl")
        with open(first, "wb") as handle:
            handle.write(b"a1\nkilled mid-li")
        tail = LineTail()
        assert list(tail.read([first])) == [b"a1"]
        # Attempt 1 is still the newest: its partial line is held.
        assert list(tail.read([first])) == []
        assert tail.file_index == 0
        with open(second, "wb") as handle:
            handle.write(b"a2\n")
        # Attempt 2 exists: attempt 1 can no longer grow, its torn line
        # is dropped and the tail continues in attempt 2.
        assert list(tail.read([first, second])) == [b"a2"]
        assert tail.file_index == 1
        with open(second, "ab") as handle:
            handle.write(b"b2\n")
        assert list(tail.read([first, second])) == [b"b2"]

    def test_small_chunks_yield_every_line_once(self, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        lines = [f"line {i:03d}".encode() for i in range(50)]
        trace.write_bytes(b"\n".join(lines) + b"\n")
        tail = LineTail()
        tail.CHUNK = 25  # several lines per chunk, chunks end mid-line
        assert list(tail.read([str(trace)])) == lines

