"""Deterministic per-request capture: record everything needed to replay.

Audit entries, traces and flight records say *what* happened to a
request; this module records enough to *re-execute* it.  A
:class:`RequestCapture` bundles the inputs a pipeline invocation
actually consumed — the beep recordings, the resolved (possibly
degraded) :class:`~repro.config.EchoImageConfig`, the
:class:`~repro.serve.streaming.ExitPolicy`, the feature mode — together
with the evidence the run produced: per-stage output digests (stamped
into trace spans via :meth:`repro.obs.tracer.Span.record_digest`),
optional full stage arrays, the decision, the environment fingerprint
and the serving :class:`~repro.serve.bundle.ModelBundle` content hash.

:class:`CaptureStore` keeps captures in a size-bounded LRU indexed by
request id, optionally mirrored to disk on the
:mod:`repro.io.storage` envelope substrate (one kind-tagged pickle per
request, plus a content-addressed stash of the model bundles referenced
by the captures, so a capture directory is self-contained for offline
replay).  Capture is opt-in: when no store is installed with
:func:`set_capture_store` (the default) the hot path pays nothing.

The pipeline's attempt loop and ``EnrollmentStore.identify`` hand each
capture they build to :func:`capture_recorder`: the installed store
for a standalone call, or the list of an enclosing
:func:`collect_captures` block.  Serving workers and replay collect;
the serving fan-out (:func:`repro.serve.outcomes.record_outcomes`)
records each served capture once, with its serving context.

The replay side lives in :mod:`repro.obs.replay`.

Example:
    >>> from repro.obs.capture import CaptureStore, RequestCapture
    >>> store = CaptureStore(max_captures=2)       # in-memory only
    >>> for i in range(3):
    ...     _ = store.record(RequestCapture(request_id=f"req-{i}",
    ...                                     kind="authenticate"))
    >>> store.request_ids()                        # bounded: oldest gone
    ('req-1', 'req-2')
    >>> store.annotate("req-2", backend="serial")
    True
    >>> store.get("req-2").backend
    'serial'
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.envinfo import environment_fingerprint
from repro.obs.metrics import SCHEMA_VERSION

# repro.io.storage is imported lazily inside the methods that persist
# (the audit ledger does the same): repro.io pulls repro.core back in,
# and this module must stay importable while repro.obs initialises.

#: Envelope kind tag of one persisted request capture.
CAPTURE_KIND = "echoimage-request-capture"

#: Canonical stage order of the authentication DAG, used by replay to
#: name the *first* diverging stage deterministically.
STAGE_ORDER = (
    "distance",
    "images",
    "features",
    "scores",
    "margins",
    "labels",
    "gate_scores",
)

#: Pickle protocol pinned for bundle content hashing — an explicit
#: protocol keeps the hash stable across interpreter versions that move
#: ``pickle.HIGHEST_PROTOCOL``.
HASH_PICKLE_PROTOCOL = 4


def bundle_content_hash(bundle) -> str:
    """Short content hash of a model bundle (stable across save/load)."""
    payload = pickle.dumps(bundle, protocol=HASH_PICKLE_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class RequestCapture:
    """Everything recorded about one request, enough to re-execute it.

    Attributes:
        request_id: Correlation id the capture is indexed under.
        kind: ``"authenticate"`` | ``"stream"`` | ``"identify"``.
        captured_at: Wall-clock time the attempt finished, stamped
            where the capture is built (the store stamps a capture
            recorded with ``0.0``).
        environment: :func:`~repro.obs.envinfo.environment_fingerprint`
            of the recording process.
        stage_digests: Stage name → output digest, in execution order.
        decision: The final decision document (label, accepted, scores,
            ...), compared byte-for-byte by replay.
        recordings: The exact beep recordings the pipeline consumed
            (already degradation-selected when a ladder step served the
            request).
        config: The resolved config actually used — for a degraded
            retry this *is* the degraded config.
        exit_policy: The streaming exit policy, ``None`` for batch.
        feature_mode: Feature extractor mode of the serving pipeline.
        stage_arrays: Stage name → full output array; lets replay
            report ``max_abs_err`` and the first offending element, not
            just digest mismatch.
        bundle_hash: Content hash of the serving bundle (set by the
            serving fan-out, which also stashes the bundle itself).
        degradation: Degradation step that served the request, if any.
        tenant / backend / via: Serving-side annotations.
        features: Input feature matrix of an ``identify`` capture.
        identify_k: Candidate count of an ``identify`` capture.
        trace: Serialised :class:`~repro.obs.tracer.PipelineTrace`.
        annotations: Free-form extra annotations.
    """

    request_id: str
    kind: str
    captured_at: float = 0.0
    environment: dict = field(default_factory=dict)
    stage_digests: dict = field(default_factory=dict)
    decision: dict = field(default_factory=dict)
    recordings: tuple = ()
    config: object = None
    exit_policy: object = None
    feature_mode: str | None = None
    stage_arrays: dict = field(default_factory=dict)
    bundle_hash: str | None = None
    degradation: str | None = None
    tenant: str | None = None
    backend: str | None = None
    via: str | None = None
    features: object = None
    identify_k: int | None = None
    trace: dict | None = None
    annotations: dict = field(default_factory=dict)

    def summary_document(self) -> dict:
        """JSON-safe summary (no arrays/recordings) for HTTP serving."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": "request_capture",
            "request_id": self.request_id,
            "capture_kind": self.kind,
            "captured_at": self.captured_at,
            "environment": dict(self.environment),
            "stage_digests": dict(self.stage_digests),
            "stages_with_arrays": sorted(self.stage_arrays),
            "decision": dict(self.decision),
            "num_recordings": len(self.recordings),
            "bundle_hash": self.bundle_hash,
            "degradation": self.degradation,
            "tenant": self.tenant,
            "backend": self.backend,
            "via": self.via,
            "feature_mode": self.feature_mode,
            "streaming": self.exit_policy is not None,
            "annotations": dict(self.annotations),
        }


def decision_document(result) -> dict:
    """The replay-comparable decision document of an auth result."""
    return {
        "label": result.label,
        "accepted": bool(result.accepted),
        "per_beep_labels": [str(x) for x in result.per_beep_labels],
        "scores": [float(s) for s in result.scores],
        "margins": [float(m) for m in result.margins],
        "beeps_used": int(result.beeps_used),
        "early_exit": bool(result.early_exit),
        "distance_m": float(result.distance.user_distance_m),
    }


def identify_decision_document(result) -> dict:
    """The replay-comparable decision document of an identify result."""
    return {
        "label": result.label,
        "accepted": bool(result.accepted),
        "candidates": [str(c) for c in result.candidates],
        "shard": result.shard,
        "per_sample_labels": [str(x) for x in result.per_sample_labels],
        "gate_scores": [float(s) for s in result.gate_scores],
        "num_users": int(result.num_users),
    }


_SAFE_ID = re.compile(r"[^-._a-zA-Z0-9]")


def _capture_filename(request_id: str) -> str:
    safe = _SAFE_ID.sub("_", request_id) or "_"
    if safe != request_id:
        # Sanitised ids could collide ("a/b" vs "a_b"); a hash suffix
        # keeps the on-disk index faithful to the real id.
        suffix = hashlib.sha256(request_id.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe}-{suffix}"
    return f"{safe}.capture.pkl"


class CaptureStore:
    """Size-bounded LRU of request captures, optionally disk-backed.

    Args:
        root: Directory to mirror captures (and referenced bundles)
            into; ``None`` keeps everything in memory.
        max_captures: Captures retained before the least-recently-used
            one is evicted (its envelope file is deleted too).
        async_persist: Move envelope writes off the recording thread
            onto a daemon writer (the hot path then only marks the
            capture dirty; the writer snapshots it under the lock and
            writes outside it).  Readers see the in-memory capture
            immediately either way; call :meth:`flush` before handing
            the directory to another process.

    Thread-safe: the serving fan-out and standalone pipeline calls
    record while the observability server reads from HTTP handler
    threads.  A failed file write (a full disk, say) is counted in
    :meth:`index_document`, not raised; the capture stays in memory.

    Disk layout under ``root``::

        <request_id>.capture.pkl        one envelope per capture
        bundles/<hash>.bundle.pkl       content-addressed model bundles

    Reopening a store on an existing ``root`` re-indexes the on-disk
    captures, oldest first.  It loads every envelope once, because a
    sanitised filename does not give the request id back and an
    unreadable file is skipped at open rather than indexed; the payload
    is then dropped and loaded again on first :meth:`get`, so opening a
    directory costs one envelope load per capture in it.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_captures: int = 256,
        async_persist: bool = False,
    ) -> None:
        if max_captures < 1:
            raise ValueError("max_captures must be >= 1")
        self.root = Path(root) if root is not None else None
        self.max_captures = max_captures
        self.async_persist = bool(async_persist and self.root is not None)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        # Ids whose envelope on disk is stale (async mode only); the
        # id the writer is currently flushing sits in ``_inflight``.
        self._dirty: set[str] = set()
        self._inflight: str | None = None
        self._closed = False
        self._writer: threading.Thread | None = None
        # request id -> RequestCapture, or None for an on-disk capture
        # not yet loaded; insertion order is recency order (LRU).
        self._index: OrderedDict[str, RequestCapture | None] = OrderedDict()
        self._total_recorded = 0
        self._write_errors = 0
        self._last_write_error: str | None = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / "bundles").mkdir(exist_ok=True)
            from repro.io.storage import StorageError, load_pickle

            for path in sorted(
                self.root.glob("*.capture.pkl"),
                key=lambda p: p.stat().st_mtime,
            ):
                try:
                    capture = load_pickle(path, CAPTURE_KIND)
                except StorageError:
                    continue
                self._index[capture.request_id] = None
        if self.async_persist:
            self._writer = threading.Thread(
                target=self._writer_loop, name="capture-writer", daemon=True
            )
            self._writer.start()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, capture: RequestCapture) -> RequestCapture:
        """Insert (or overwrite) a capture and persist it when backed.

        Stamps ``captured_at`` when the caller left it at zero, refreshes
        recency, and evicts least-recently-used captures beyond
        ``max_captures``.
        """
        if not capture.captured_at:
            capture.captured_at = time.time()
        with self._lock:
            self._index[capture.request_id] = capture
            self._index.move_to_end(capture.request_id)
            self._total_recorded += 1
            self._persist(capture)
            while len(self._index) > self.max_captures:
                evicted_id, _ = self._index.popitem(last=False)
                self._discard_file(evicted_id)
        return capture

    def annotate(self, request_id: str, **fields) -> bool:
        """Attach serving-side fields to an existing capture.

        Known :class:`RequestCapture` attributes are set directly;
        anything else lands in ``annotations``.  Returns ``False`` when
        the id is unknown (e.g. already evicted).
        """
        with self._lock:
            capture = self._load(request_id)
            if capture is None:
                return False
            for key, value in fields.items():
                if hasattr(capture, key) and key != "annotations":
                    setattr(capture, key, value)
                else:
                    capture.annotations[key] = value
            self._persist(capture)
        return True

    def flush(self, timeout: float | None = None) -> bool:
        """Wait until every recorded capture has reached disk.

        A no-op (returning ``True``) for synchronous stores; in async
        mode blocks until the writer has drained the dirty set, or
        ``timeout`` seconds elapsed (returning ``False``).
        """
        if not self.async_persist:
            return True
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._dirty and self._inflight is None,
                timeout=timeout,
            )

    def close(self) -> None:
        """Drain pending writes and stop the background writer.

        Idempotent; further :meth:`record` calls fall back to
        synchronous persistence.
        """
        if not self.async_persist:
            return
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        writer = self._writer
        if writer is not None and writer is not threading.current_thread():
            writer.join()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, request_id: str) -> RequestCapture | None:
        """The capture recorded under ``request_id`` (refreshes LRU)."""
        with self._lock:
            capture = self._load(request_id)
            if capture is not None:
                self._index.move_to_end(request_id)
            return capture

    def request_ids(self) -> tuple:
        """Captured request ids, least- to most-recently used."""
        with self._lock:
            return tuple(self._index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, request_id: str) -> bool:
        with self._lock:
            return request_id in self._index

    # ------------------------------------------------------------------
    # Bundle stash
    # ------------------------------------------------------------------

    def ensure_bundle(self, bundle) -> str:
        """Stash ``bundle`` content-addressed; returns its hash.

        No-op (beyond hashing, which the bundle caches) when the store
        is memory-only or the bundle is already stashed, so the serving
        fan-out can call this once per served batch.  A failed write is
        counted like a failed envelope write and retried on the next
        call.
        """
        content_hash = getattr(bundle, "content_hash", None)
        digest = content_hash() if callable(content_hash) else (
            bundle_content_hash(bundle)
        )
        if self.root is not None:
            from repro.io.storage import BUNDLE_KIND, envelope_bytes

            path = self._bundle_path(digest)
            if not path.exists():
                self._write(path, envelope_bytes(BUNDLE_KIND, bundle))
        return digest

    def load_bundle(self, digest: str):
        """Load a stashed bundle by content hash.

        Raises:
            StorageError: Memory-only store, or no such bundle stashed.
        """
        from repro.io.storage import StorageError, load_model_bundle

        if self.root is None:
            raise StorageError(
                f"<memory>/bundles/{digest}", "missing",
                "in-memory capture store stashes no bundles",
            )
        return load_model_bundle(self._bundle_path(digest))

    def bundle_hashes(self) -> tuple:
        """Content hashes of every stashed bundle."""
        if self.root is None:
            return ()
        return tuple(
            sorted(
                p.name[: -len(".bundle.pkl")]
                for p in (self.root / "bundles").glob("*.bundle.pkl")
            )
        )

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------

    def index_document(self) -> dict:
        """JSON-safe index of the store, newest capture first.

        ``write_errors`` counts envelope and bundle writes that failed
        since the store opened; ``last_write_error`` names the file and
        the error of the latest one.
        """
        with self._lock:
            rows = []
            for request_id in reversed(self._index):
                capture = self._index[request_id]
                row = {"request_id": request_id}
                if capture is not None:
                    row.update(
                        capture_kind=capture.kind,
                        captured_at=capture.captured_at,
                        label=capture.decision.get("label"),
                        accepted=capture.decision.get("accepted"),
                        bundle_hash=capture.bundle_hash,
                        backend=capture.backend,
                    )
                rows.append(row)
            return {
                "schema": SCHEMA_VERSION,
                "kind": "capture_index",
                "root": str(self.root) if self.root is not None else None,
                "max_captures": self.max_captures,
                "total_recorded": self._total_recorded,
                "write_errors": self._write_errors,
                "last_write_error": self._last_write_error,
                "captures": rows,
            }

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------

    def _load(self, request_id: str) -> RequestCapture | None:
        if request_id not in self._index:
            return None
        capture = self._index[request_id]
        if capture is None and self.root is not None:
            from repro.io.storage import StorageError, load_pickle

            try:
                capture = load_pickle(
                    self.root / _capture_filename(request_id), CAPTURE_KIND
                )
            except StorageError:
                return None
            self._index[request_id] = capture
        return capture

    def _persist(self, capture: RequestCapture) -> None:
        if self.root is None:
            return
        if self.async_persist and not self._closed:
            self._dirty.add(capture.request_id)
            self._cond.notify()
            return
        from repro.io.storage import envelope_bytes

        self._write(
            self.root / _capture_filename(capture.request_id),
            envelope_bytes(CAPTURE_KIND, capture),
        )

    def _write(self, path: Path, data: bytes) -> None:
        """Write one envelope or bundle; count a failure, never raise.

        A full or read-only disk must not fail the served request.
        """
        from repro.io.storage import write_bytes_atomic

        try:
            write_bytes_atomic(path, data)
        except OSError as exc:
            with self._lock:
                self._write_errors += 1
                self._last_write_error = f"{path.name}: {exc}"

    def _writer_loop(self) -> None:
        from repro.io.storage import envelope_bytes

        while True:
            with self._cond:
                while not self._dirty and not self._closed:
                    self._cond.wait()
                if not self._dirty:
                    return  # closed and fully drained
                request_id = self._dirty.pop()
                capture = self._index.get(request_id)
                if capture is None:  # evicted meanwhile
                    self._cond.notify_all()
                    continue
                # Serialise under the lock (a concurrent annotate would
                # otherwise mutate the capture mid-pickle), write the
                # snapshot outside it — that is the slow part.
                data = envelope_bytes(CAPTURE_KIND, capture)
                path = self.root / _capture_filename(request_id)
                self._inflight = request_id
            try:
                self._write(path, data)
            finally:
                with self._cond:
                    self._inflight = None
                    self._cond.notify_all()

    def _discard_file(self, request_id: str) -> None:
        if self.root is None:
            return
        if self.async_persist:
            # Never written, or about to be: drop the pending write and
            # wait out an in-flight one so the unlink below is final.
            self._dirty.discard(request_id)
            self._cond.wait_for(lambda: self._inflight != request_id)
        path = self.root / _capture_filename(request_id)
        try:
            path.unlink()
        except OSError:
            pass

    def _bundle_path(self, digest: str) -> Path:
        return self.root / "bundles" / f"{digest}.bundle.pkl"


class StageCollector:
    """Per-request digest/array collector used by the pipeline hooks.

    Binds a root span; each :meth:`stamp` records the stage digest on
    the span (via :meth:`~repro.obs.tracer.Span.record_digest`) and
    keeps the digest — plus, for arrays, a defensive copy of the output
    itself — for the :class:`RequestCapture`.
    """

    def __init__(self, span) -> None:
        self._span = span
        self.digests: dict = {}
        self.arrays: dict = {}

    def stamp(self, stage: str, value) -> None:
        import numpy as np

        self.digests[stage] = self._span.record_digest(stage, value)
        if isinstance(value, np.ndarray):
            self.arrays[stage] = np.array(value, copy=True)


def capture_environment() -> dict:
    """The environment fingerprint stamped into every capture."""
    return dict(environment_fingerprint())


# ----------------------------------------------------------------------
# Process-wide default store (opt-in: None until installed)
# ----------------------------------------------------------------------

_STORE_LOCK = threading.Lock()
_CAPTURE_STORE: CaptureStore | None = None


def get_capture_store() -> CaptureStore | None:
    """The installed process-wide capture store, or ``None`` (default).

    Unlike the flight recorder there is no always-on default: capture
    retains raw waveforms and configs, so it must be asked for.
    """
    with _STORE_LOCK:
        return _CAPTURE_STORE


def set_capture_store(
    store: CaptureStore | None,
) -> CaptureStore | None:
    """Install (or clear, with ``None``) the process-wide capture store.

    Returns the previous store so callers can restore it.  A forked
    child (a ``process`` serving worker) starts with none, so it never
    writes the parent's directory from its copy of the store.
    """
    global _CAPTURE_STORE
    with _STORE_LOCK:
        previous = _CAPTURE_STORE
        _CAPTURE_STORE = store
        return previous


def _forget_store_after_fork() -> None:
    global _CAPTURE_STORE, _STORE_LOCK
    _STORE_LOCK = threading.Lock()
    _CAPTURE_STORE = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_store_after_fork)


_COLLECTING = threading.local()


@contextmanager
def collect_captures():
    """Collect the captures this thread builds instead of recording them.

    Yields the list they are appended to, in build order.  Blocks nest;
    only the innermost one collects.
    """
    captured: list[RequestCapture] = []
    previous = getattr(_COLLECTING, "captures", None)
    _COLLECTING.captures = captured
    try:
        yield captured
    finally:
        _COLLECTING.captures = previous


def capture_recorder():
    """Where a capture hook hands the capture it builds, or ``None``.

    The enclosing :func:`collect_captures` block's ``append`` on this
    thread, else the installed store's :meth:`CaptureStore.record`;
    ``None`` means nothing is captured, so the hook builds nothing.
    """
    captured = getattr(_COLLECTING, "captures", None)
    if captured is not None:
        return captured.append
    store = get_capture_store()
    return store.record if store is not None else None
