"""The run ledger: an append-only registry of every CLI invocation.

A long exploration leaves artifacts (traces, checkpoints, reports)
scattered wherever the user pointed the flags — and nothing that says
*which run* produced *which files* with *what outcome*.  The ledger is
that missing spine: every ``python -m repro`` run command (``check``,
``explore``, ``audit``, ``report``) appends one JSON record to
``.repro/runs.jsonl`` (override with ``--ledger`` or the
``REPRO_LEDGER`` environment variable, disable with ``--no-ledger``).

Format (``repro-ledger/1``): one self-describing JSON object per line::

    {"format": "repro-ledger/1", "run_id": "20260806T120301-3fa9c1",
     "command": "explore", "argv": ["explore", "--n", "2", ...],
     "started_at": "2026-08-06T12:03:01Z", "duration_seconds": 12.81,
     "exit_code": 3, "verdict": "inconclusive",
     "describe": "exhaustive(task=set-consensus, n=2, k=1, max_crashes=1)",
     "executions": 1742, "interrupted": "deadline 10s exceeded ...",
     "budget": "Budget(deadline=10s)",
     "budget_trips": {"deadline": 1},
     "checkpoint": "ck.jsonl", "parent_run_id": "20260806T115950-81d2aa",
     "artifacts": {"trace_out": "run.jsonl"},
     "witnesses": [".repro/witnesses/counterexample-1a2b3c4d5e6f.jsonl"]}

The ``witnesses`` key (present when the run captured any) lists the
``repro-witness/1`` bundles archived by :mod:`repro.obs.witness` —
each is a replayable deciding execution that ``repro explain RUN_ID``
can shrink and render.

The ``execset`` key (present when the run recorded an execution-set
digest, see :mod:`repro.obs.execset`) carries
``{"digest": <64 hex>, "records": N, "executions": M, "path": ...}`` —
the content-addressed identity of the set of final configurations
behind the verdict (``records`` configurations, reached by ``executions``
executions).  ``repro diff`` resolves run ids to these files and
compares two runs — set digest, set difference, verdict — as sets of
configurations.

Appends are atomic (:func:`append_record`).  Unknown keys are preserved
by readers; corrupt lines are skipped and counted (same tolerance as
event traces).

Resume chains: when ``repro explore`` writes a checkpoint, the
checkpoint header records the writing run's ``run_id``; a later
``--resume`` run records that id as its ``parent_run_id``, so the ledger
reconstructs the full chain of a multi-session exploration.

``repro runs list | show`` render the ledger; ``show`` prints every
key of one record (argv, steps, budget, artifacts, ...).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.fsutil import LineStats, append_line, read_json_objects

FORMAT = "repro-ledger/1"

#: Default ledger location, relative to the working directory.
DEFAULT_PATH = os.path.join(".repro", "runs.jsonl")

#: CLI exit code -> ledger verdict string (inverse of the report command's
#: EXIT_CODES mapping; any other exit code records as ``error``).
EXIT_VERDICTS = {0: "proved", 1: "refuted", 2: "error", 3: "inconclusive"}


def default_ledger_path() -> str:
    """The ledger file to use: ``$REPRO_LEDGER`` or ``.repro/runs.jsonl``."""
    return os.environ.get("REPRO_LEDGER", DEFAULT_PATH)


def new_run_id() -> str:
    """A fresh, sortable run id: UTC timestamp plus a random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


# ----------------------------------------------------------------------
# Reading and writing
# ----------------------------------------------------------------------
def append_record(path: str, record: Dict[str, Any]) -> None:
    """Append one record to the ledger, atomically (one ``O_APPEND``
    write, see :func:`repro.fsutil.append_line`): concurrent runs that
    finish at once interleave whole records, never fragments."""
    append_line(path, json.dumps(record, default=repr, separators=(",", ":")))


def read_ledger(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read all records: ``(records, corrupt_lines_skipped)``.

    Missing file reads as empty — a fresh working directory simply has
    no history yet.  Lines that fail to parse, or parse to something
    other than a ``repro-ledger/1`` object, are skipped and counted.
    """
    if not os.path.exists(path):
        return [], 0
    stats = LineStats()
    records = [
        record for record in read_json_objects(path, stats)
        if record.get("format") == FORMAT
    ]
    return records, stats.lines - len(records)


def find_record(
    records: List[Dict[str, Any]], run_id: str
) -> Dict[str, Any]:
    """Resolve a (possibly abbreviated) run id to its record.

    Exact match wins; otherwise a unique prefix suffices.  Raises
    ``ValueError`` with a helpful message when the id is unknown or the
    prefix ambiguous.
    """
    exact = [r for r in records if r.get("run_id") == run_id]
    if exact:
        return exact[-1]
    matches = [r for r in records if str(r.get("run_id", "")).startswith(run_id)]
    if not matches:
        raise ValueError(f"no run {run_id!r} in the ledger")
    distinct = {r.get("run_id") for r in matches}
    if len(distinct) > 1:
        raise ValueError(
            f"run id {run_id!r} is ambiguous: matches "
            + ", ".join(sorted(str(d) for d in distinct))
        )
    return matches[-1]


def resume_chain(
    records: List[Dict[str, Any]], run_id: str
) -> List[Dict[str, Any]]:
    """The full resume chain through ``run_id``, oldest first.

    Walks ``parent_run_id`` links backwards from the given run and then
    forwards (records whose ``parent_run_id`` names the current run), so
    any link of a multi-session exploration resolves the whole chain.
    A parent id with no surviving record (a SIGKILLed worker writes its
    run id only into the checkpoint header, never the ledger) terminates
    the backward walk rather than erroring — the missing attempt still
    shows up in the next record's ``parent_run_id`` field.

    Raises ``ValueError`` (via :func:`find_record`) when ``run_id`` is
    unknown or an ambiguous prefix, and when the ledger holds a cyclic
    or self-referential ``parent_run_id`` chain — a corrupt (or
    hand-edited) ledger must be reported, not walked forever.  Both
    walks are additionally bounded by the ledger size, so no input can
    loop.
    """
    record = find_record(records, run_id)
    by_id = {r.get("run_id"): r for r in records if r.get("run_id")}
    chain = [record]
    seen = {record.get("run_id")}
    current = record
    for _ in range(len(records)):  # backwards to the oldest survivor
        parent = current.get("parent_run_id")
        if not parent or parent not in by_id:
            break
        if parent in seen:
            cycle = [str(r.get("run_id")) for r in chain] + [str(parent)]
            raise ValueError(
                f"run {run_id!r}: cyclic parent_run_id chain in the "
                "ledger: " + " -> ".join(reversed(cycle))
            )
        current = by_id[parent]
        seen.add(parent)
        chain.insert(0, current)
    else:
        raise ValueError(
            f"run {run_id!r}: parent_run_id chain longer than the ledger "
            "— cyclic records?"
        )
    current = record
    for _ in range(len(records)):  # forwards to the newest resume
        # A falsy current id would make every parent-less record look
        # like a successor (None == None); corrupt records cannot chain.
        if not current.get("run_id"):
            break
        successors = [
            r for r in records
            if r.get("parent_run_id") == current.get("run_id")
            and r.get("run_id") not in seen
        ]
        if not successors:
            break
        current = successors[0]
        seen.add(current.get("run_id"))
        chain.append(current)
    else:
        raise ValueError(
            f"run {run_id!r}: resume chain longer than the ledger "
            "— cyclic records?"
        )
    return chain


# ----------------------------------------------------------------------
# The current run (CLI wiring)
# ----------------------------------------------------------------------
class RunRecorder:
    """Accumulates one run's ledger record; written on :meth:`finish`.

    Command implementations annotate it through :func:`annotate` without
    knowing whether a ledger is active at all.
    """

    def __init__(
        self,
        path: str,
        command: str,
        argv: Optional[List[str]] = None,
    ):
        self.path = path
        self.run_id = new_run_id()
        self.record: Dict[str, Any] = {
            "format": FORMAT,
            "run_id": self.run_id,
            "command": command,
            "argv": list(argv or []),
            "started_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        }
        self._started = time.monotonic()

    def annotate(self, **fields: Any) -> None:
        """Merge fields into the pending record (``None`` values skipped)."""
        for key, value in fields.items():
            if value is not None:
                self.record[key] = value

    def finish(self, exit_code: int) -> Dict[str, Any]:
        """Stamp duration/exit/verdict and append the record to the ledger."""
        self.record["duration_seconds"] = round(
            time.monotonic() - self._started, 3
        )
        self.record["exit_code"] = exit_code
        self.record.setdefault(
            "verdict", EXIT_VERDICTS.get(exit_code, "error")
        )
        append_record(self.path, self.record)
        return self.record


_current: Optional[RunRecorder] = None


def begin_run(
    path: str, command: str, argv: Optional[List[str]] = None
) -> RunRecorder:
    """Install a process-wide recorder for the run now starting."""
    global _current
    _current = RunRecorder(path, command, argv)
    return _current


def current_run() -> Optional[RunRecorder]:
    """The active recorder, or ``None`` when no ledger is being kept."""
    return _current


def annotate(**fields: Any) -> None:
    """Annotate the active run's pending record (no-op without one)."""
    if _current is not None:
        _current.annotate(**fields)


def finish_run(exit_code: int) -> Optional[Dict[str, Any]]:
    """Finalize and append the active record; returns it (or ``None``)."""
    global _current
    if _current is None:
        return None
    recorder, _current = _current, None
    return recorder.finish(exit_code)


def abandon_run() -> None:
    """Drop the active recorder without writing (tests, nested mains)."""
    global _current
    _current = None


# ----------------------------------------------------------------------
# Rendering (the ``repro runs`` subcommands)
# ----------------------------------------------------------------------
def _fmt_duration(value: Any) -> str:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "?"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.2f}s"


#: The ledger's verdict vocabulary (the values of :data:`EXIT_VERDICTS`).
VERDICTS = ("proved", "refuted", "inconclusive", "error")


def filter_by_verdict(
    records: List[Dict[str, Any]], verdict: str
) -> List[Dict[str, Any]]:
    """Records whose verdict matches (case-insensitive).

    Shared by ``repro runs list --verdict`` and the service's
    ``GET /runs?verdict=`` so scripts and the daemon agree on what
    counts as, say, a PROVED run.  Unknown verdict strings raise
    ``ValueError`` rather than silently matching nothing.
    """
    wanted = verdict.strip().lower()
    if wanted not in VERDICTS:
        raise ValueError(
            f"unknown verdict {verdict!r}; expected one of "
            + ", ".join(v.upper() for v in VERDICTS)
        )
    return [
        r for r in records if str(r.get("verdict", "")).lower() == wanted
    ]


def render_json(records: List[Dict[str, Any]], limit: int = 0) -> str:
    """The ledger as a JSON array (``repro runs list --json``) — records
    verbatim, newest last, so scripts get every key the table elides."""
    if limit and len(records) > limit:
        records = records[-limit:]
    return json.dumps(records, indent=2, default=repr)


def render_list(records: List[Dict[str, Any]], limit: int = 0) -> str:
    """Aligned table of the ledger, newest last (the append order)."""
    if not records:
        return "(ledger is empty)"
    if limit and len(records) > limit:
        records = records[-limit:]
    rows = [("run id", "started (UTC)", "command", "verdict", "duration", "notes")]
    for record in records:
        notes = []
        if record.get("parent_run_id"):
            notes.append(f"resumes {record['parent_run_id']}")
        if record.get("checkpoint"):
            notes.append(f"ckpt {record['checkpoint']}")
        if record.get("executions") is not None:
            notes.append(f"{record['executions']} execs")
        witnesses = record.get("witnesses")
        if isinstance(witnesses, list) and witnesses:
            notes.append(
                f"{len(witnesses)} witness{'es' if len(witnesses) != 1 else ''}"
            )
        rows.append(
            (
                str(record.get("run_id", "?")),
                str(record.get("started_at", "?")),
                str(record.get("command", "?")),
                str(record.get("verdict", "?")),
                _fmt_duration(record.get("duration_seconds")),
                ", ".join(notes),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row[:-1])]
        lines.append(("  ".join(cells) + "  " + row[-1]).rstrip())
    return "\n".join(lines)


def render_show(record: Dict[str, Any]) -> str:
    """Full record, one ``key: value`` line each (dicts pretty-printed)."""
    preferred = [
        "run_id", "parent_run_id", "command", "argv", "started_at",
        "duration_seconds", "exit_code", "verdict", "describe",
        "executions", "interrupted", "budget", "budget_trips",
        "checkpoint", "artifacts", "witnesses", "execset",
    ]
    keys = [k for k in preferred if k in record]
    keys += [k for k in sorted(record) if k not in keys and k != "format"]
    lines = []
    for key in keys:
        value = record[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)
