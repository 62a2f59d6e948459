"""Execution sets: the final configurations behind a verdict, as an artifact.

Every verdict the explorer produces (agreement counts for O(n,k),
``all_done``, the set-consensus bounds) is a claim about a set of runs,
and the part of that set a verdict reads is its *outcomes*: Gafni's
"captured by a set of runs" framing, kept at the grain the verdicts
need.  This module persists that set as a content-addressed, diffable
artifact, so two explorations that visited the same number of
executions can be checked to have reached the same final
configurations (the audit that frontier sharding and state-cached or
DPOR-style reductions need).

Format (``repro-execset/2``): JSONL with one header object, one compact
record per distinct final configuration, and one footer object::

    {"format": "repro-execset/2", "spec": {"task": "set-consensus", ...}}
    {"canonical": "e61a...", "config": "5b1d9e0a7c4f2e61", "crashes": 1,
     "decisions": [[0,0],[1,-1],...], "depth": 7, "distinct": 1,
     "done": false, "executions": 22, "id": "9f2c01d4a8b3",
     "recoveries": 0}
    ...
    {"format": "repro-execset/2", "footer": true, "records": 42,
     "executions": 720, "digest": "<64 hex>", "merged_digest": "<64 hex>",
     "total_records": 42, "total_executions": 720}

Per-record fields:

``config`` / ``canonical``
    The final configuration's exact and pid-symmetry-quotiented
    fingerprints (:mod:`repro.obs.fingerprint`).  ``config`` keys the
    record: a file holds each configuration once.
``distinct`` / ``done``
    The verdict fields: how many distinct values were decided, and
    whether every process finished.  The configuration fixes both.
``executions``
    How many maximal executions of the walk end in this configuration.
``decisions`` / ``depth`` / ``crashes`` / ``recoveries`` / ``id``
    The exhibit: the first execution in walk order that reaches the
    configuration.  ``decisions`` is its ``full_decisions`` (crash and
    recovery sentinels inline), so :meth:`~repro.runtime.system.
    SystemSpec.replay` and :mod:`repro.obs.explain` can rebuild it when
    two runs diverge; ``id`` is its :func:`execution_id`.  A DFS that
    skips only nodes it has visited before (a state cache) reaches each
    configuration first along the same path, so the exhibit survives
    such a reduction.

Records are written sorted by ``config`` and carry no wall-clock, so
two identical explorations write byte-identical files.  The footer
digest is :func:`set_digest`, the sha256 of the sorted fingerprints
joined by newlines: it names the set, so any visiting order, shard
split or resume split of one exploration gives the same digest.  A
resumed run starts from the checkpoint header's ``execset`` entry (the
sorted fingerprints so far and the execution count, see
:mod:`repro.faults.checkpoint`); its file header keeps that entry as
``base``, ``digest`` covers this file's records and ``merged_digest``
the union with the base, i.e. the whole multi-session exploration.

``repro diff`` (:mod:`repro.obs.diff`) consumes these files (directly or
through the run ledger) and compares two runs on set identity.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.fsutil import LineStats, read_json_objects, write_atomic
from repro.obs import events as _events
from repro.obs import ledger as _ledger
from repro.obs.fingerprint import config_fingerprints, content_digest, content_id

FORMAT = "repro-execset/2"

#: Default directory for ``repro explore``'s digest streams, next to the
#: run ledger and witness bundles.
DEFAULT_DIR = os.path.join(".repro", "execsets")


def default_dir() -> str:
    """Directory for default-named streams: ``$REPRO_EXECSET_DIR`` when
    set (the test suite points it at a tmpdir, mirroring
    ``$REPRO_LEDGER``), else :data:`DEFAULT_DIR`."""
    return os.environ.get("REPRO_EXECSET_DIR") or DEFAULT_DIR

#: Hex digits of the digest surfaced in tables, ledgers, and dashboards
#: (the full 64-hex value is kept in files and JSON for comparisons).
SHORT_DIGEST_LENGTH = 16


def execution_id(execution: Any) -> str:
    """Content address of one maximal execution.

    Hashes ``full_decisions`` + ``crashes`` + ``recoveries`` through
    :func:`~repro.obs.fingerprint.content_id`, the witness-id material,
    so live and replayed captures of the same execution share an id.
    """
    return content_id(
        [execution.full_decisions, execution.crashes, execution.recoveries]
    )


def set_digest(configs: Iterable[str]) -> str:
    """Digest of a set of configuration fingerprints: the sha256 of the
    sorted distinct fingerprints joined by newlines.

    Order and multiplicity do not matter, so overlapping shards merge to
    the digest of their union.
    """
    return content_digest("\n".join(sorted(set(configs))))


def short_digest(digest_hex: Optional[str]) -> str:
    """Display form of a digest (``n/a`` for ``None``)."""
    if not digest_hex:
        return "n/a"
    return str(digest_hex)[:SHORT_DIGEST_LENGTH]


def _record_json(record: Dict[str, Any]) -> str:
    """One stream line: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# The recorder (attachable to an Explorer)
# ----------------------------------------------------------------------
class ExecutionSetRecorder:
    """Accumulates one run's final configurations.

    Attach to an :class:`~repro.runtime.explorer.Explorer` as one of its
    ``observers``: :meth:`observe` is called once per maximal execution
    walked, with the live system still at its final configuration,
    :meth:`credit` once per final configuration of a subtree a
    state-cached walk (:meth:`~repro.runtime.explorer.Explorer.run`)
    credits instead of walking, and :meth:`checkpoint_state` rides in
    the explorer's checkpoints.  Purely observational: the walk order
    and every verdict are identical with and without it.

    Many executions funnel into few final configurations (6,540
    crash-recovery executions of O(1,2) end in 300), so per execution
    :meth:`observe` does one ``System.identity()`` lookup and one counter
    increment, and :meth:`credit` one of each per credited configuration.
    The snapshot, fingerprints, verdict fields and exhibit id are built
    once per new identity, and :meth:`write` serializes one record per
    configuration.

    ``base`` is a checkpoint header's ``execset`` entry (``{"configs":
    [...], "executions": N}``): a resumed run unions its records with
    that set, so :attr:`merged_digest` covers the whole multi-session
    exploration.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        spec_meta: Optional[Dict[str, Any]] = None,
        value_alphabet: Optional[List[Any]] = None,
        base: Optional[Dict[str, Any]] = None,
    ):
        self.path = path
        self.spec_meta = dict(spec_meta or {})
        self.value_alphabet = value_alphabet
        self.base = dict(base) if base else None
        self.base_configs: Set[str] = set((base or {}).get("configs") or ())
        self.base_executions = int((base or {}).get("executions") or 0)
        #: ``config -> record``, one per distinct final configuration of
        #: this run, in first-reach order.
        self.records: Dict[str, Dict[str, Any]] = {}
        #: ``System.identity() -> record``: equal identities imply equal
        #: configurations, so a known identity only bumps its record.
        self._by_identity: Dict[Any, Dict[str, Any]] = {}

    def observe(self, execution: Any, system: Any) -> None:
        """Count one maximal execution toward its final configuration
        (hot-path hook)."""
        key = system.identity()
        record = self._by_identity.get(key)
        if record is None:
            record = self._by_identity[key] = self._reach(execution, system)
        record["executions"] += 1

    def credit(self, identity: Any, n: int) -> None:
        """Count ``n`` more executions ending in the configuration named
        ``identity``, which an earlier :meth:`observe` recorded."""
        self._by_identity[identity]["executions"] += n

    def _reach(self, execution: Any, system: Any) -> Dict[str, Any]:
        """The record of ``system``'s configuration, created with
        ``execution`` as its exhibit when the configuration is new."""
        config, canonical = config_fingerprints(system, self.value_alphabet)
        record = self.records.get(config)
        if record is None:
            decisions = execution.full_decisions
            record = self.records[config] = {
                "config": config,
                "canonical": canonical,
                "distinct": len(execution.distinct_outputs()),
                "done": execution.all_done(),
                "executions": 0,
                "decisions": decisions,
                "depth": len(decisions),
                "crashes": len(execution.crashes),
                "recoveries": len(execution.recoveries),
                "id": execution_id(execution),
            }
        return record

    # -- digests -------------------------------------------------------
    @property
    def digest(self) -> str:
        """Digest of this run's own configurations only."""
        return set_digest(self.records)

    def configs(self) -> Set[str]:
        """Every configuration of the exploration so far, the resumed
        base included."""
        return self.base_configs | self.records.keys()

    @property
    def merged_digest(self) -> str:
        """Digest including the resumed base (equals :attr:`digest` for
        a fresh run)."""
        return set_digest(self.configs())

    @property
    def executions(self) -> int:
        """Executions this run observed."""
        return sum(record["executions"] for record in self.records.values())

    @property
    def total_records(self) -> int:
        """Distinct configurations of the whole exploration."""
        return len(self.configs())

    @property
    def total_executions(self) -> int:
        return self.base_executions + self.executions

    def checkpoint_state(self) -> Dict[str, Any]:
        """The set so far, carried in checkpoint headers so a resumed
        run can union it."""
        return {
            "configs": sorted(self.configs()),
            "executions": self.total_executions,
        }

    def ledger_summary(self) -> Dict[str, Any]:
        """The ``execset`` field recorded in the run ledger."""
        summary: Dict[str, Any] = {
            "digest": self.merged_digest,
            "records": self.total_records,
            "executions": self.total_executions,
        }
        if self.path:
            summary["path"] = self.path
        return summary

    # -- persistence ---------------------------------------------------
    def write(self, path: Optional[str] = None) -> str:
        """Atomically write the ``repro-execset/2`` file.

        Records are sorted by ``config`` and the file carries no
        wall-clock, so two identical explorations write byte-identical
        artifacts.  Emits an ``execset_digest`` event (digest, record
        counts, path) when the bus is enabled.
        """
        destination = path or self.path
        if destination is None:
            raise ValueError("no execset path configured")
        header: Dict[str, Any] = {"format": FORMAT, "spec": self.spec_meta}
        if self.base:
            header["base"] = self.base
        footer = {
            "format": FORMAT,
            "footer": True,
            "records": len(self.records),
            "executions": self.executions,
            "digest": self.digest,
            "merged_digest": self.merged_digest,
            "total_records": self.total_records,
            "total_executions": self.total_executions,
        }
        records = self.records
        write_atomic(
            destination,
            [
                _record_json(header),
                *(_record_json(records[config]) for config in sorted(records)),
                _record_json(footer),
            ],
            prefix=".execset-",
        )
        self.path = destination
        _ledger.annotate(execset=self.ledger_summary())
        if _events.is_enabled():
            _events.emit(
                "execset_digest",
                digest=short_digest(self.merged_digest),
                records=len(self.records),
                total_records=self.total_records,
                path=destination,
            )
        return destination


# ----------------------------------------------------------------------
# Reading and merging
# ----------------------------------------------------------------------
@dataclass
class ExecSetFile:
    """A parsed ``repro-execset/2`` file."""

    path: str
    header: Dict[str, Any] = field(default_factory=dict)
    #: ``config -> record``, duplicates collapsed.
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    footer: Dict[str, Any] = field(default_factory=dict)
    skipped: int = 0

    @property
    def spec(self) -> Dict[str, Any]:
        return dict(self.header.get("spec") or {})

    @property
    def base_configs(self) -> Set[str]:
        """The resumed base's configurations (empty for a fresh run)."""
        base = self.header.get("base")
        configs = base.get("configs") if isinstance(base, dict) else None
        return set(configs) if isinstance(configs, list) else set()

    @property
    def own_digest(self) -> str:
        """Digest recomputed from the records actually present."""
        return set_digest(self.records)

    @property
    def merged_digest(self) -> str:
        """Digest of the whole exploration, recomputed from the records
        and the header's resumed base."""
        return set_digest(self.base_configs | self.records.keys())

    @property
    def executions(self) -> int:
        """Executions counted by the records present."""
        return sum(
            record["executions"]
            for record in self.records.values()
            if isinstance(record.get("executions"), int)
        )

    @property
    def base_records(self) -> int:
        return len(self.base_configs)

    @property
    def partial(self) -> bool:
        """True when the file's records do not cover the whole
        exploration (a resumed run whose parent file is elsewhere)."""
        return self.base_records > 0

    @property
    def consistent(self) -> bool:
        """True when the footer's own-records digest matches the records
        actually read back (an integrity check on the artifact)."""
        declared = self.footer.get("digest")
        if not isinstance(declared, str) or not declared:
            return True  # no footer to check against (truncated write)
        return declared == self.own_digest


def read_execset(path: str) -> ExecSetFile:
    """Parse an execset file, tolerantly.

    Same tolerance as the ledger and witness readers: lines that fail to
    parse, and records without a ``config``, are skipped and counted.  A
    footer that does not match the records is kept as written
    (:attr:`ExecSetFile.consistent` reports it).  Raises ``OSError``
    only when the file itself cannot be read.
    """
    parsed = ExecSetFile(path=path)
    stats = LineStats()
    for record in read_json_objects(path, stats):
        if record.get("format") == FORMAT:
            if record.get("footer"):
                parsed.footer = record
            else:
                parsed.header = record
            continue
        config = record.get("config")
        if not isinstance(config, str) or not config:
            parsed.skipped += 1
            continue
        parsed.records.setdefault(config, record)
    parsed.skipped += stats.skipped
    return parsed


def peek_footer(path: str) -> Optional[Dict[str, Any]]:
    """Tolerant footer read for dashboards: the last line's footer
    object, or ``None`` on any missing/unreadable/malformed file."""
    try:
        with open(path, "rb") as handle:
            try:
                handle.seek(-4096, os.SEEK_END)
            except OSError:
                handle.seek(0)
            tail = handle.read().decode("utf-8", "replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if isinstance(record, dict) and record.get("footer"):
            return record
        return None
    return None


def absorb(
    into: Dict[str, Dict[str, Any]], records: Dict[str, Dict[str, Any]]
) -> None:
    """Union ``records`` into ``into``, keyed on ``config``.

    A configuration already present keeps its exhibit (the earlier
    shard's first path) and adds the other's ``executions``.
    """
    for config, record in records.items():
        kept = into.get(config)
        if kept is None:
            into[config] = dict(record)
        else:
            kept["executions"] = int(kept.get("executions") or 0) + int(
                record.get("executions") or 0
            )

