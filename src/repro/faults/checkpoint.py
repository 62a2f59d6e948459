"""Checkpoint files: the explorer's decision-prefix frontier, on disk.

Replay-based exploration has a tiny resumable state: the stack of
decision prefixes not yet expanded (the DFS *frontier*).  A checkpoint
serializes that stack plus enough metadata to validate the target system,
so an interrupted ``repro explore`` (SIGINT, deadline, step budget) can
pick up exactly where it stopped — the resumed run visits precisely the
executions the interrupted one had not yet yielded.

Format (``repro-checkpoint/3``): JSONL with one header object followed by
one object per pending prefix, written atomically
(:func:`repro.fsutil.write_atomic`) so a checkpoint on disk is always
complete::

    {"format": "repro-checkpoint/3", "n_processes": 2, "frontier": 3,
     "executions": 17, "max_depth": 60, "max_crashes": 1,
     "max_recoveries": 1, "stats": {...}, "spec": {...}}
    {"prefix": [[0, 0], [1, 0]]}
    {"prefix": [[0, 0], [1, -1]]}
    ...

Decisions are ``[pid, choice]`` pairs; choice ``-1`` is the crash
sentinel and ``-2`` the recovery sentinel (see
:data:`repro.runtime.execution.CRASH_CHOICE` /
:data:`repro.runtime.execution.RECOVER_CHOICE`).  Prefixes are listed
bottom-of-stack first; the resumed explorer processes them top-of-stack
(last line) first, preserving DFS order.  The optional ``spec`` object
is opaque provenance for CLI reconstruction — the library validates only
``n_processes``.

Version 2 added ``max_recoveries`` so a resumed run re-arms the
crash-recovery budget exactly.  Version 3 marks frontiers cut from the
walk that orders each run of same-step faults as
:func:`~repro.runtime.execution.merge_fault_decisions` does; before it,
such a run was walked in non-decreasing pid order.  A frontier holds
prefixes of one walk order only, and resuming it under the other skips
executions, so :meth:`Checkpoint.resume_refusal` refuses an unfinished
``repro-checkpoint/1`` or ``/2`` file whose ``max_recoveries`` is
positive: re-run it from scratch.  Crash-only walks order their faults
identically in every version (crash pids strictly increase), so older
crash-only files resume exactly (a v1 file's ``max_recoveries`` defaults
to 0).

The optional ``execset`` header entry carries the interrupted run's
execution set so far: the sorted fingerprints of the final
configurations it reached and its execution count (``{"configs": [...],
"executions": N}``, see :mod:`repro.obs.execset`).  A resumed run unions
its own configurations with that set, so its footer's merged digest
covers the whole multi-session exploration.  Headers written before the
entry existed, or by a recorder of the older execution-id format, carry
no ``configs``: the resumed run's set then covers only its own session.

Writing a checkpoint emits a ``checkpoint_written`` event (path,
frontier size, executions completed) through :mod:`repro.obs`.  The
temp file of checkpoint ``<name>`` is ``.checkpoint-<name>-<random>.tmp``
beside it; a writer killed before its rename leaves one behind, and the
next write of ``<name>`` removes it (other checkpoints' temp files are
left to their own writers).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.fsutil import CorruptLine, read_json_objects, write_atomic
from repro.obs import events as _obs_events

FORMAT = "repro-checkpoint/3"

#: Older format markers :func:`read_checkpoint` still understands.
LEGACY_FORMATS = ("repro-checkpoint/1", "repro-checkpoint/2")

Decision = Tuple[int, int]


@dataclass
class Checkpoint:
    """A parsed checkpoint: pending frontier plus run metadata."""

    n_processes: int
    #: Pending decision prefixes, bottom-of-stack first.
    frontier: List[List[Decision]]
    #: Maximal executions already yielded before the checkpoint.
    executions: int = 0
    max_depth: int = 0
    max_crashes: int = 0
    #: Recovery budget of the interrupted run (0 for v1 files).
    max_recoveries: int = 0
    #: Statistics snapshot of the interrupted run (informational).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Opaque spec provenance written by the producer (e.g. the CLI).
    spec: Dict[str, Any] = field(default_factory=dict)
    #: Ledger id of the run that wrote this checkpoint (``None`` for
    #: library-driven explorations) — the parent link of a resume chain.
    run_id: Optional[str] = None
    #: Execution set so far (``{"configs": [...], "executions": ...}``)
    #: of the interrupted run, or ``None`` for legacy headers and runs
    #: without a recorder attached (see :mod:`repro.obs.execset`).
    execset: Optional[Dict[str, Any]] = None
    #: Format marker of the file (:data:`FORMAT` or a legacy one).
    format: str = FORMAT

    @property
    def done(self) -> bool:
        """True when the exploration had finished (empty frontier)."""
        return not self.frontier

    def resume_refusal(self) -> Optional[str]:
        """Why resuming this checkpoint would not visit exactly the
        remaining executions, or ``None`` when it would.

        An unfinished legacy file with recovery branches holds prefixes
        of the old fault order (see the module docstring)."""
        if self.format in LEGACY_FORMATS and self.max_recoveries > 0 and not self.done:
            return (
                f"{self.format} checkpoint with max_recoveries="
                f"{self.max_recoveries} was cut from an older fault order "
                "and cannot be resumed exactly; re-run the exploration "
                "from scratch"
            )
        return None


def write_checkpoint(
    path: str,
    n_processes: int,
    frontier: List[List[Decision]],
    executions: int = 0,
    max_depth: int = 0,
    max_crashes: int = 0,
    max_recoveries: int = 0,
    stats: Optional[Dict[str, Any]] = None,
    spec: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    execset: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically write a checkpoint file.

    The file appears on disk complete or not at all
    (:func:`repro.fsutil.write_atomic`), so a checkpoint can be read
    back even if the writing process was killed immediately afterwards.
    """
    header = {
        "format": FORMAT,
        "n_processes": n_processes,
        "frontier": len(frontier),
        "executions": executions,
        "max_depth": max_depth,
        "max_crashes": max_crashes,
        "max_recoveries": max_recoveries,
        "stats": dict(stats or {}),
        "spec": dict(spec or {}),
    }
    if run_id is not None:
        header["run_id"] = run_id
    if execset is not None:
        header["execset"] = dict(execset)
    prefixes = (
        json.dumps({"prefix": [[pid, choice] for pid, choice in prefix]})
        for prefix in frontier
    )
    prefix = f".checkpoint-{os.path.basename(path)}-"
    _remove_stale_temp_files(path, prefix)
    write_atomic(path, chain([json.dumps(header)], prefixes), prefix=prefix)
    if _obs_events.is_enabled():
        _obs_events.emit(
            "checkpoint_written",
            path=path,
            frontier=len(frontier),
            executions=executions,
        )


def _remove_stale_temp_files(path: str, prefix: str) -> None:
    """Remove the temp files earlier writers of checkpoint ``path`` were
    killed with.  Checkpoint ``<name>-x``'s temp files also start with
    ``prefix``, but hold a dash after it; a random temp suffix never does."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    for name in names:
        if (
            name.startswith(prefix)
            and name.endswith(".tmp")
            and "-" not in name[len(prefix) :]
        ):
            try:
                os.unlink(os.path.join(directory, name))
            except FileNotFoundError:
                pass


def peek_checkpoint(path: str) -> Optional[Checkpoint]:
    """Tolerant :func:`read_checkpoint` for supervisors: ``None`` on any
    missing, unreadable, or malformed file.

    ``repro serve`` restarts crashed workers from their last checkpoint;
    a worker killed before its first checkpoint (no file) or while the
    path is otherwise unusable should fall back to a fresh start, not
    take the daemon down.  Library callers that *own* a checkpoint keep
    the strict reader — for them corruption is a real error.
    """
    try:
        return read_checkpoint(path)
    except (OSError, ProtocolError):
        return None


def read_checkpoint(path: str) -> Checkpoint:
    """Parse a checkpoint file, validating the format marker.

    Unlike event traces (where a truncated tail is expected debris),
    checkpoints are written atomically, so corruption here is a real
    error: a wrong frontier silently changes which executions a resumed
    run visits.  Any malformed line raises :class:`ProtocolError`.
    """
    try:
        records = list(read_json_objects(path, strict=True))
    except CorruptLine as error:
        where = "header" if error.line == 1 else f"frontier line {error.line}"
        raise ProtocolError(f"checkpoint {path!r}: corrupt {where}: {error}") from None
    if not records:
        raise ProtocolError(f"checkpoint {path!r} is empty")
    header = records[0]
    if header.get("format") not in (FORMAT, *LEGACY_FORMATS):
        raise ProtocolError(
            f"checkpoint {path!r}: unsupported format "
            f"{header.get('format')!r}; expected {FORMAT!r}"
        )
    frontier: List[List[Decision]] = []
    for index, record in enumerate(records[1:], start=2):
        try:
            prefix = [(int(pid), int(choice)) for pid, choice in record["prefix"]]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"checkpoint {path!r}: corrupt frontier line {index}: {error}"
            ) from None
        frontier.append(prefix)
    declared = header.get("frontier")
    if declared is not None and declared != len(frontier):
        raise ProtocolError(
            f"checkpoint {path!r}: header declares {declared} frontier "
            f"entries, found {len(frontier)} — file is incomplete"
        )
    return Checkpoint(
        n_processes=int(header.get("n_processes", 0)),
        frontier=frontier,
        executions=int(header.get("executions", 0)),
        max_depth=int(header.get("max_depth", 0)),
        max_crashes=int(header.get("max_crashes", 0)),
        max_recoveries=int(header.get("max_recoveries", 0)),
        stats=dict(header.get("stats") or {}),
        spec=dict(header.get("spec") or {}),
        run_id=header.get("run_id"),
        execset=(
            dict(header["execset"])
            if isinstance(header.get("execset"), dict)
            else None
        ),
        format=header["format"],
    )
