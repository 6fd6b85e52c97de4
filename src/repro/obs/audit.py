"""Tamper-evident decision audit ledger (append-only, hash-chained JSONL).

Every accept/reject an authentication service emits is a
security-relevant event: an operator investigating an incident must be
able to reconstruct — months later — which candidates the prefilter
surfaced, what the SVDD score and SVM margins were, whether the request
was served degraded, and on which commit/host the decision ran.  The
:class:`AuditLedger` is that durable record:

* **append-only JSONL** — one decision per line, written through the
  :func:`repro.io.storage.append_jsonl_line` substrate (single
  ``O_APPEND`` write per entry, no torn lines, no interleaving);
* **hash-chained** — every entry carries ``prev_hash``, the SHA-256 of
  the previous entry's canonical JSON (the first entry chains from
  :data:`GENESIS_HASH`), and an atomically updated ``<ledger>.head.json``
  side-car pins the chain tip, so *any* mutation, insertion, deletion or
  tail truncation is detected by :func:`verify_chain`;
* **size-rotated** — when the active file would exceed ``max_bytes`` it
  is renamed to a numbered segment (each segment restarts its chain at
  genesis and keeps its own frozen head side-car), bounding the cost of
  the verification walk;
* **queryable** — :meth:`AuditLedger.query` filters by request id, user,
  decision and time range; the same API backs the ``/audit`` endpoint of
  :class:`repro.obs.server.ObservabilityServer` and
  ``scripts/audit_query.py``.

Auditing is opt-in: the process-wide default ledger
(:func:`get_audit_ledger`) starts as ``None`` and nothing is written to
disk until a driver installs one with :func:`set_audit_ledger` (e.g.
``scripts/serve_monitor.py --audit-jsonl`` or ``repro.cli run
serve-batch --audit-jsonl``).  Entries are written by the serving
layer's outcome fan-out (:func:`repro.serve.outcomes.record_outcomes`)
and by :meth:`repro.io.store.EnrollmentStore.identify`; a direct
:meth:`repro.core.pipeline.EchoImagePipeline.authenticate` call is not
audited.

Example:
    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro.obs.audit import AuditLedger, verify_chain
    >>> path = Path(tempfile.mkdtemp()) / "audit.jsonl"
    >>> ledger = AuditLedger(path)
    >>> entry = ledger.append(
    ...     "serve", "req-1", decision="accept", user="alice")
    >>> entry["prev_hash"] == "0" * 64
    True
    >>> ledger.query(request_id="req-1")[0]["user"]
    'alice'
    >>> verify_chain(path).ok
    True
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.metrics import SCHEMA_VERSION

#: ``prev_hash`` of the first entry of every chain segment.
GENESIS_HASH = "0" * 64

#: Default rotation threshold of the active ledger file, in bytes.
DEFAULT_MAX_BYTES = 4_000_000


class ChainError(Exception):
    """A ledger failed verification (or could not be resumed).

    Attributes:
        path: The offending ledger file.
        line_number: 1-based line of the first bad entry (``None`` for
            file-level failures such as a head-record mismatch).
        reason: Machine-readable cause — ``bad-json`` / ``bad-schema`` /
            ``hash-mismatch`` / ``head-mismatch`` / ``missing``.
    """

    def __init__(
        self,
        path: Path | str,
        reason: str,
        line_number: int | None = None,
        detail: str = "",
    ) -> None:
        self.path = Path(path)
        self.reason = reason
        self.line_number = line_number
        message = f"{self.path}: {reason}"
        if line_number is not None:
            message = f"{message} at line {line_number}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


@dataclass(frozen=True)
class ChainVerification:
    """Structured outcome of one :func:`verify_chain` walk.

    Attributes:
        path: The verified ledger file.
        ok: Whether the chain (and head record, when present) held.
        entries: Entries successfully verified before any failure.
        reason: Failure cause (see :class:`ChainError`); ``None`` when
            ``ok``.
        line_number: 1-based line of the first bad entry, when the
            failure is entry-level.
        detail: Human-readable elaboration of the failure.
    """

    path: Path
    ok: bool
    entries: int
    reason: str | None = None
    line_number: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable representation."""
        return {
            "schema": SCHEMA_VERSION,
            "path": str(self.path),
            "ok": self.ok,
            "entries": self.entries,
            "reason": self.reason,
            "line_number": self.line_number,
            "detail": self.detail,
        }

    def raise_on_failure(self) -> "ChainVerification":
        """Return ``self`` when ok, raise :class:`ChainError` otherwise."""
        if not self.ok:
            raise ChainError(
                self.path, self.reason or "unknown",
                self.line_number, self.detail,
            )
        return self


def entry_hash(entry: dict) -> str:
    """SHA-256 of an entry's canonical JSON (the chain link value)."""
    canonical = json.dumps(
        entry, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _head_path(path: Path) -> Path:
    return path.with_name(path.name + ".head.json")


def _walk_chain(path: Path) -> tuple[ChainVerification, str, list[dict]]:
    """Walk one segment file; returns (verdict, tip_hash, entries)."""
    if not path.exists():
        return (
            ChainVerification(path, False, 0, reason="missing"),
            GENESIS_HASH,
            [],
        )
    expected_prev = GENESIS_HASH
    entries: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as err:
                return (
                    ChainVerification(
                        path, False, len(entries),
                        reason="bad-json", line_number=line_number,
                        detail=str(err),
                    ),
                    expected_prev,
                    entries,
                )
            if not isinstance(entry, dict) or "prev_hash" not in entry:
                return (
                    ChainVerification(
                        path, False, len(entries),
                        reason="bad-schema", line_number=line_number,
                        detail="entry is not a hash-chained object",
                    ),
                    expected_prev,
                    entries,
                )
            if entry["prev_hash"] != expected_prev:
                return (
                    ChainVerification(
                        path, False, len(entries),
                        reason="hash-mismatch", line_number=line_number,
                        detail=(
                            f"prev_hash {entry['prev_hash'][:12]}... does "
                            f"not chain from {expected_prev[:12]}... — the "
                            "preceding entry was mutated or removed"
                        ),
                    ),
                    expected_prev,
                    entries,
                )
            expected_prev = entry_hash(entry)
            entries.append(entry)
    return (
        ChainVerification(path, True, len(entries)),
        expected_prev,
        entries,
    )


def verify_chain(path: str | Path) -> ChainVerification:
    """Verify the hash chain (and head side-car) of one ledger file.

    The walk recomputes every entry's hash and checks each ``prev_hash``
    link; when a ``<path>.head.json`` side-car exists, the chain tip and
    entry count must also match it — which is what makes deleting or
    truncating the *newest* entries (an attack the chain alone cannot
    see) detectable.

    Returns:
        A :class:`ChainVerification`; call
        :meth:`ChainVerification.raise_on_failure` for exception-style
        handling.
    """
    path = Path(path)
    verdict, tip, entries = _walk_chain(path)
    if not verdict.ok:
        return verdict
    head_path = _head_path(path)
    if head_path.exists():
        try:
            head = json.loads(head_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            return ChainVerification(
                path, False, len(entries),
                reason="head-mismatch",
                detail=f"unreadable head record {head_path.name}: {err}",
            )
        if head.get("hash") != tip or head.get("entries") != len(entries):
            return ChainVerification(
                path, False, len(entries),
                reason="head-mismatch",
                detail=(
                    f"head record pins {head.get('entries')} entries ending "
                    f"at {str(head.get('hash'))[:12]}..., ledger has "
                    f"{len(entries)} ending at {tip[:12]}... — newest "
                    "entries were truncated or rewritten"
                ),
            )
    return verdict


class AuditLedger:
    """Append-only, hash-chained, size-rotated decision ledger.

    Args:
        path: The active JSONL file (parent directories are created on
            first append).  Rotated segments live next to it as
            ``<name>.1``, ``<name>.2``, ... (oldest first).
        max_bytes: Rotation threshold for the active file; an append
            that would push the file past it rotates first.  ``0``
            disables rotation.
        fsync: Force every entry to stable storage (off by default —
            the single-write append already bounds loss to the last
            entry on power failure).

    All methods are thread-safe; the serving layer appends from the
    batch driver thread while ``/audit`` queries from HTTP handler
    threads.  Opening an existing ledger *verifies it* and resumes the
    chain from its tip, so a corrupted ledger refuses further appends
    (raising :class:`ChainError`) instead of silently extending a
    broken chain.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        fsync: bool = False,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (0 disables rotation)")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0
        self._entries = 0
        self._size = 0
        self._prev_hash = GENESIS_HASH
        if self.path.exists():
            verdict, tip, entries = _walk_chain(self.path)
            verdict.raise_on_failure()
            self._prev_hash = tip
            self._entries = len(entries)
            self._seq = max(
                (int(e.get("seq", -1)) for e in entries), default=-1
            ) + 1
            self._size = self.path.stat().st_size

    # -- writing -------------------------------------------------------

    def append(self, kind: str, request_id: str, **fields) -> dict:
        """Append one decision entry; returns the stored entry.

        Args:
            kind: Decision source — ``"serve"`` (batch serving layer),
                ``"authenticate"`` (standalone pipeline call) or
                ``"identify"`` (sharded-store lookup).
            request_id: The correlation id joining this entry to the
                trace store, flight recorder and metric exemplars.
            **fields: JSON-serialisable decision context (user claim,
                decision, scores, margins, candidates, shard,
                degradation, latency, environment fingerprint, ...).

        Raises:
            ValueError: When a field collides with the envelope keys
                (``schema``/``seq``/``ts``/``kind``/``request_id``/
                ``prev_hash``).
        """
        # Imported lazily: repro.io pulls core/obs modules back in, and
        # this module must stay importable while repro.obs initialises.
        from repro.io.storage import append_jsonl_line, write_json_atomic

        reserved = {
            "schema", "seq", "ts", "kind", "request_id", "prev_hash",
        }
        collisions = reserved.intersection(fields)
        if collisions:
            raise ValueError(
                f"audit fields collide with envelope keys: "
                f"{sorted(collisions)}"
            )
        with self._lock:
            entry = {
                "schema": SCHEMA_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "kind": kind,
                "request_id": request_id,
                **fields,
                "prev_hash": self._prev_hash,
            }
            line = json.dumps(
                entry, sort_keys=True, separators=(",", ":"),
                ensure_ascii=True,
            )
            payload_size = len(line.encode("utf-8")) + 1
            if (
                self.max_bytes
                and self._size > 0
                and self._size + payload_size > self.max_bytes
            ):
                self._rotate_locked()
                entry["prev_hash"] = self._prev_hash
                line = json.dumps(
                    entry, sort_keys=True, separators=(",", ":"),
                    ensure_ascii=True,
                )
            append_jsonl_line(self.path, line, fsync=self.fsync)
            self._size += payload_size
            self._entries += 1
            self._seq += 1
            self._prev_hash = entry_hash(entry)
            write_json_atomic(
                _head_path(self.path),
                {
                    "schema": SCHEMA_VERSION,
                    "entries": self._entries,
                    "hash": self._prev_hash,
                },
            )
        return entry

    def _rotate_locked(self) -> None:
        """Move the active file aside; the chain restarts at genesis."""
        import os

        index = 1
        while self.path.with_name(f"{self.path.name}.{index}").exists():
            index += 1
        segment = self.path.with_name(f"{self.path.name}.{index}")
        os.replace(self.path, segment)
        head = _head_path(self.path)
        if head.exists():
            os.replace(head, _head_path(segment))
        self._size = 0
        self._entries = 0
        self._prev_hash = GENESIS_HASH

    # -- reading -------------------------------------------------------

    def segments(self) -> list[Path]:
        """Rotated segment files, oldest first (excludes the active file)."""
        found = []
        for candidate in self.path.parent.glob(self.path.name + ".*"):
            suffix = candidate.name[len(self.path.name) + 1:]
            if suffix.isdigit():
                found.append((int(suffix), candidate))
        return [path for _, path in sorted(found)]

    def entries(self, include_rotated: bool = False) -> list[dict]:
        """Parsed ledger entries, oldest first.

        Args:
            include_rotated: Also read rotated segments (oldest first)
                before the active file.
        """
        paths = (self.segments() if include_rotated else []) + (
            [self.path] if self.path.exists() else []
        )
        out: list[dict] = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        out.append(json.loads(line))
        return out

    def query(
        self,
        request_id: str | None = None,
        user: str | None = None,
        decision: str | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
        include_rotated: bool = False,
    ) -> list[dict]:
        """Filter ledger entries; newest-last, capped at ``limit``.

        Args:
            request_id: Exact correlation-id match.
            user: Exact match on the entry's ``user`` field.
            decision: Exact match on the entry's ``decision`` field.
            since: Minimum entry timestamp (inclusive, epoch seconds).
            until: Maximum entry timestamp (inclusive).
            limit: Keep only the newest N matches.
            include_rotated: Search rotated segments too.
        """
        matches = []
        for entry in self.entries(include_rotated=include_rotated):
            if request_id is not None and entry.get("request_id") != request_id:
                continue
            if user is not None and str(entry.get("user")) != str(user):
                continue
            if decision is not None and entry.get("decision") != decision:
                continue
            ts = entry.get("ts")
            if since is not None and (ts is None or ts < since):
                continue
            if until is not None and (ts is None or ts > until):
                continue
            matches.append(entry)
        if limit is not None and limit >= 0:
            matches = matches[len(matches) - min(limit, len(matches)):]
        return matches

    def verify_chain(self, include_rotated: bool = False) -> ChainVerification:
        """Verify the active file (and optionally every rotated segment).

        Each segment is an independent chain; with ``include_rotated``
        the first failing segment's verdict is returned and the summary
        counts every verified entry before it.
        """
        total = 0
        if include_rotated:
            for segment in self.segments():
                verdict = verify_chain(segment)
                if not verdict.ok:
                    return verdict
                total += verdict.entries
        verdict = verify_chain(self.path) if self.path.exists() else (
            ChainVerification(self.path, True, 0)
        )
        if not verdict.ok:
            return verdict
        return ChainVerification(self.path, True, total + verdict.entries)

    def to_document(
        self,
        entries: list[dict],
        total_matched: int | None = None,
    ) -> dict:
        """Wrap query results as the versioned ``/audit`` payload."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": "audit_query",
            "path": str(self.path),
            "total_matched": (
                len(entries) if total_matched is None else total_matched
            ),
            "entries": entries,
        }


# -- process-wide default ledger ----------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_LEDGER: AuditLedger | None = None


def get_audit_ledger() -> AuditLedger | None:
    """The installed process-wide ledger, or ``None`` (auditing off).

    Instrumentation call sites read ``ledger = get_audit_ledger(); if
    ledger is not None: ...`` — no ledger, no disk writes, no overhead
    beyond one function call.
    """
    with _DEFAULT_LOCK:
        return _DEFAULT_LEDGER


def set_audit_ledger(ledger: AuditLedger | None) -> AuditLedger | None:
    """Install (or remove, with ``None``) the default ledger.

    Returns:
        The previously installed ledger.
    """
    global _DEFAULT_LEDGER
    with _DEFAULT_LOCK:
        previous = _DEFAULT_LEDGER
        _DEFAULT_LEDGER = ledger
        return previous
