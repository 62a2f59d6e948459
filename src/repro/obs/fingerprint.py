"""Content-addressed hashing shared by witnesses, the state audit, and
execution-set digests.

One hashing convention, several consumers.  :mod:`repro.obs.witness`
names bundle files by a digest of the deciding execution;
:mod:`repro.obs.audit` fingerprints every *configuration* the explorer
visits to measure how much of the schedule tree revisits known states;
:mod:`repro.obs.execset` keys each final configuration by its
fingerprint and names the execution that first reaches it by
:func:`content_id`.
Keeping them on the same helper means bundle ids, audit state hashes,
and execution ids cannot drift apart.

Hashing a configuration costs a snapshot, JSON and sha256, so hot paths
key their memo tables on :meth:`repro.runtime.system.System.identity`
instead: a hashable name built in O(objects + processes) whose contract
is that equal identities imply equal ``configuration()`` snapshots,
hence equal fingerprints.  :class:`repro.obs.execset.ExecutionSetRecorder`
(per final configuration) and :class:`repro.obs.audit.StateAuditor` (per
visited one) both run :func:`config_fingerprints` once per identity.

A configuration is hashed from its structured snapshot
(:meth:`repro.runtime.system.System.configuration`): shared-object states
plus one component per process.  Process control state is extensional —
a generator cannot be hashed, but it is a deterministic function of its
program (fixed per pid) and the responses delivered to it, so
``(status, responses, pending-op)`` names it exactly.  Crash decisions
are covered: a crashed process carries status ``"crashed"``, so a
crashed and a non-crashed configuration never share a fingerprint.

Two fingerprints per configuration:

* :func:`configuration_fingerprint` — exact identity.  Two equal
  fingerprints mean a state cache could have skipped the second visit.
* :func:`canonical_fingerprint` — identity up to process renaming (the
  per-process components are sorted) and, optionally, up to a consistent
  renaming of the declared input values (:func:`abstract_values`).  The
  quotient estimates pid-symmetry orbits.  It is an *estimator*: object
  states that embed pids or ports are not rewritten, so configurations
  that a true orbit computation would keep apart can merge — read the
  resulting savings as an optimistic bound, not a sound reduction.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Hex digits kept from the sha256 for configuration fingerprints.  Long
#: enough that accidental collisions are negligible at audit scales
#: (2^-64 birthday bound around four billion states), short enough that
#: the revisit table stays cheap.
FINGERPRINT_LENGTH = 16

#: Hex digits kept by :func:`content_id` (witness bundle and execution ids).
CONTENT_ID_LENGTH = 12

#: ``json.dumps`` with keyword arguments builds a fresh encoder per call;
#: the per-event hashing paths share this one instead.
_STABLE_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=repr
)


def stable_json(value: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace, ``repr`` fallback
    for non-serializable leaves.  The single serialization every content
    digest in this package is computed over."""
    return _STABLE_ENCODER.encode(value)


def content_digest(text: str) -> str:
    """Full sha256 hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_id(value: Any) -> str:
    """Short content address of a JSON-serializable value: the first
    :data:`CONTENT_ID_LENGTH` hex digits of the sha256 of its
    :func:`stable_json` form."""
    return content_digest(stable_json(value))[:CONTENT_ID_LENGTH]


# ----------------------------------------------------------------------
# Configuration fingerprints
# ----------------------------------------------------------------------
def configuration_fingerprint(system: Any) -> str:
    """Exact content address of a live configuration.

    ``system`` is a :class:`~repro.runtime.system.System`; the hash
    covers its :meth:`~repro.runtime.system.System.configuration`
    snapshot verbatim (object states, and per-process status / delivered
    responses / pending operation, crashes included via status).
    """
    return content_digest(stable_json(system.configuration()))[:FINGERPRINT_LENGTH]


def config_fingerprints(
    system: Any, value_alphabet: Optional[Sequence[Any]] = None
) -> Tuple[str, str]:
    """``(configuration_fingerprint, canonical_fingerprint)`` of
    ``system``, derived from one ``configuration()`` snapshot."""
    snapshot = system.configuration()
    return (
        content_digest(stable_json(snapshot))[:FINGERPRINT_LENGTH],
        content_digest(canonical_body(snapshot, value_alphabet))[
            :FINGERPRINT_LENGTH
        ],
    )


def canonical_fingerprint(
    system: Any, value_alphabet: Optional[Sequence[Any]] = None
) -> str:
    """Content address of a configuration's pid-symmetry orbit estimate.

    Equal for two configurations that differ only by a permutation of
    their process components (and, when ``value_alphabet`` is given, by a
    consistent renaming of those input values).
    """
    return content_digest(
        canonical_body(system.configuration(), value_alphabet)
    )[:FINGERPRINT_LENGTH]


def canonical_body(
    snapshot: Dict[str, Any], value_alphabet: Optional[Sequence[Any]] = None
) -> str:
    """The canonical serialized form behind :func:`canonical_fingerprint`.

    Process components are serialized individually and sorted, which is
    invariant under any permutation of the process list (the property
    tests pin this).  Value abstraction, when requested, runs *after*
    sorting, so it cannot break the invariance.
    """
    processes = sorted(stable_json(c) for c in snapshot.get("processes", []))
    body = stable_json(
        {"objects": snapshot.get("objects", {}), "processes": processes}
    )
    if value_alphabet:
        body = abstract_values(body, value_alphabet)
    return body


def abstract_values(text: str, alphabet: Sequence[Any]) -> str:
    """Rewrite occurrences of the alphabet values in serialized form to
    placeholders numbered by first occurrence.

    Two serialized configurations that differ only by a consistent
    renaming of the alphabet values map to the same text, because the
    placeholder numbering follows textual position, not value identity.
    Values are matched by their JSON-encoded ``repr`` (the leaf encoding
    :func:`stable_json` produces), longest needle first so one value's
    encoding being a substring of another's cannot corrupt the rewrite.
    """
    needles: List[str] = []
    seen = set()
    for value in alphabet:
        needle = json.dumps(repr(value))[1:-1]
        if needle and needle not in seen:
            seen.add(needle)
            needles.append(needle)
    first_seen = []
    for needle in needles:
        index = text.find(needle)
        if index >= 0:
            first_seen.append((index, needle))
    mapping = {
        needle: f"§{rank}§"
        for rank, (_index, needle) in enumerate(sorted(first_seen))
    }
    for needle in sorted(mapping, key=len, reverse=True):
        text = text.replace(needle, mapping[needle])
    return text
