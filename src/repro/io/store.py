"""Persistent, sharded enrollment store with two-stage identification.

This is the million-user answer to the paper's Section V-E identifier
(ROADMAP item #1).  The flat design — one ``O(n^2)``-pair one-vs-one
SVM over every registered user — collapses long before n=1000: each
enroll retrains every pair and each identify tallies every machine.
The store replaces it with:

* **a sharded on-disk layout** — users are hashed into a fixed number
  of shards; each shard holds its members' enrollment embeddings plus a
  fitted :class:`~repro.core.authenticator.MultiUserAuthenticator`
  (SVDD spoofer gate + one-vs-one SVM over *that shard only*), pickled
  through the atomic envelopes of :mod:`repro.io.storage`;
* **incremental enroll/revoke** — membership changes refit only the
  affected shard (``O(shard^2)`` pairs, not ``O(n^2)``), and
  :meth:`EnrollmentStore.enroll_batch` amortises bulk loads to one
  refit per shard;
* **two-stage identification** — stage 1 is a
  :class:`~repro.ml.prefilter.CentroidPrefilter` over per-user mean
  embeddings that narrows n users to ``k`` candidates in one vectorised
  pass; stage 2 runs the SVDD gate and the candidate-restricted SVM
  vote of only the shards owning those candidates.

Identification work is therefore ``O(n)`` flops in stage 1 (one
distance per enrolled user) and ``O(k^2)`` machines in stage 2 —
near-flat in wall time as the population grows 10x -> 1000x (the
``identify.pop_*`` bench cases pin this; ``docs/SCALING.md`` has the
measured sweep and the shard-count / ``k`` tuning guide).

On-disk layout under the store root::

    manifest.json           # schema, shard count, k, user -> shard map
    prefilter.pkl           # stage-1 centroids (atomic pickle envelope)
    shards/shard_0003.pkl   # per-shard embeddings + fitted gate/SVM

Every write lands via temp-file + ``os.replace``; a crash mid-enroll
leaves the previous consistent state.  Corrupted files surface as
structured :class:`~repro.io.storage.StorageError`\\ s.

Example:
    >>> import numpy as np, tempfile
    >>> from repro.io.store import EnrollmentStore
    >>> rng = np.random.default_rng(0)
    >>> alice = rng.normal(0.0, 0.5, (8, 3))    # embedding clusters
    >>> bob = rng.normal(8.0, 0.5, (8, 3))
    >>> store = EnrollmentStore.open(
    ...     tempfile.mkdtemp(), num_shards=2, candidate_k=2)
    >>> store.enroll("alice", alice)
    >>> store.enroll("bob", bob)
    >>> sorted(store.users())
    ['alice', 'bob']
    >>> result = store.identify(alice[:2])      # two beeps of alice
    >>> result.label, result.accepted
    ('alice', True)
    >>> store.revoke("bob")
    >>> store.users()
    ('alice',)
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import AuthenticationConfig
from repro.core.authenticator import (
    SPOOFER_LABEL,
    MultiUserAuthenticator,
    majority_label,
)
from repro.core.telemetry import pipeline_metrics
from repro.io.storage import StorageError, load_pickle, save_pickle
from repro.ml.prefilter import CentroidPrefilter
from repro.obs import (
    correlation_scope,
    current_request_id,
    ensure_trace,
    trace,
)

#: Manifest schema version.
MANIFEST_SCHEMA = 1

#: Manifest artifact kind.
MANIFEST_KIND = "echoimage-enrollment-store"

#: Envelope kind of shard files.
SHARD_KIND = "echoimage-enrollment-shard"

#: Envelope kind of the persisted stage-1 prefilter.
PREFILTER_KIND = "echoimage-enrollment-prefilter"


def shard_of(label, num_shards: int) -> int:
    """The stable shard index of ``label``.

    Python's builtin ``hash`` is salted per process, so the assignment
    uses SHA-1 over ``repr(label)`` — identical across restarts, which
    is what lets a reopened store find its users again.

    Example:
        >>> shard_of("alice", 8) == shard_of("alice", 8)
        True
        >>> 0 <= shard_of(42, 8) < 8
        True
    """
    digest = hashlib.sha1(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class ShardState:
    """One shard's durable payload: member embeddings + fitted models.

    Attributes:
        features: Per-user enrollment embedding matrices — kept so the
            shard can refit after a revoke without anyone re-enrolling.
        auth: The fitted SVDD gate + shard-local SVM, or ``None`` for a
            just-created empty shard.
    """

    features: dict = field(default_factory=dict)
    auth: MultiUserAuthenticator | None = None


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one two-stage identification.

    Attributes:
        label: The identified user label, or
            :data:`~repro.core.authenticator.SPOOFER_LABEL` when every
            sample was gated out (or the store is empty).
        accepted: Convenience flag (``label != SPOOFER_LABEL``).
        candidates: The stage-1 candidate set, nearest centroid first.
        shard: Index of the shard that produced the decision, or
            ``None`` when no candidate shard was consulted.
        per_sample_labels: Raw per-sample decisions before the majority
            vote (mirrors ``AuthenticationResult.per_beep_labels``).
        gate_scores: Per-sample SVDD scores from the deciding shard.
        num_users: Enrolled population size at decision time.
        request_id: Correlation id of the lookup — inherited from the
            ambient scope or minted per call; the same id is stamped on
            the ``identify`` spans and the audit-ledger entry.
    """

    label: object
    accepted: bool
    candidates: tuple = ()
    shard: int | None = None
    per_sample_labels: tuple = ()
    gate_scores: tuple = ()
    num_users: int = 0
    request_id: str | None = None


class EnrollmentStore:
    """Persistent sharded user registry with sub-linear identification.

    Use :meth:`open` to create or reattach a store rooted at a
    directory; see the module docstring for the layout and a runnable
    example.  All public methods are thread-safe behind one lock — the
    store is a registry, not a hot loop, and single-writer semantics
    keep the on-disk state trivially consistent.

    Args:
        root: Store directory (created when absent).
        num_shards: Shard count for a *new* store; an existing manifest
            wins over this argument.
        candidate_k: Default stage-1 candidate-set size for
            :meth:`identify`.
        auth_config: SVDD/SVM hyper-parameters applied at shard refits;
            defaults to :class:`~repro.config.AuthenticationConfig`.
    """

    def __init__(
        self,
        root: str | Path,
        num_shards: int = 16,
        candidate_k: int = 8,
        auth_config: AuthenticationConfig | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if candidate_k < 1:
            raise ValueError(f"candidate_k must be >= 1, got {candidate_k}")
        self.root = Path(root)
        self.auth_config = auth_config or AuthenticationConfig()
        self._lock = threading.RLock()
        self._states: dict[int, ShardState] = {}
        self._dirty: set[int] = set()
        manifest = self._load_manifest()
        if manifest is None:
            self.num_shards = num_shards
            self.candidate_k = candidate_k
            self._assignment: dict = {}
            self._revision = 0
            self._feature_dim: int | None = None
            self._prefilter = CentroidPrefilter()
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_manifest()
            self._write_prefilter()
        else:
            self.num_shards = int(manifest["num_shards"])
            self.candidate_k = int(manifest.get("candidate_k", candidate_k))
            self._assignment = {
                _label_from_json(entry[0]): int(entry[1])
                for entry in manifest["users"]
            }
            self._revision = int(manifest.get("revision", 0))
            dim = manifest.get("feature_dim")
            self._feature_dim = None if dim is None else int(dim)
            self._prefilter = load_pickle(
                self.root / "prefilter.pkl", PREFILTER_KIND
            )

    @classmethod
    def open(
        cls,
        root: str | Path,
        num_shards: int = 16,
        candidate_k: int = 8,
        auth_config: AuthenticationConfig | None = None,
    ) -> "EnrollmentStore":
        """Create a new store at ``root`` or reattach to an existing one.

        Reattaching validates the manifest and loads only the stage-1
        prefilter eagerly; shard payloads are read lazily on first use,
        so opening a million-user store stays cheap.

        Returns:
            The ready store.

        Raises:
            StorageError: On a corrupted manifest or prefilter file.
        """
        return cls(
            root,
            num_shards=num_shards,
            candidate_k=candidate_k,
            auth_config=auth_config,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, label) -> bool:
        return label in self._assignment

    def users(self) -> tuple:
        """Every enrolled label, in enrollment order."""
        return tuple(self._assignment)

    def shard_of(self, label) -> int:
        """The shard holding ``label`` (``KeyError`` when not enrolled)."""
        return self._assignment[label]

    @property
    def prefilter(self) -> CentroidPrefilter:
        """The stage-1 centroid index (read it, don't mutate it).

        Exposed for recall diagnostics — e.g. checking whether a probe's
        true user survives stage 1 at a given ``k``.  Mutating it
        directly desynchronises stage 1 from the shards; use
        :meth:`enroll` / :meth:`revoke` instead.
        """
        return self._prefilter

    def __enter__(self) -> "EnrollmentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------

    def enroll(self, label, features: np.ndarray) -> None:
        """Enroll (or re-enroll) one user from their embeddings.

        Only the user's shard is refit — the cost of adding user
        n+1 depends on that shard's membership, not on n.  The update
        is durable once the call returns: shard, prefilter and manifest
        all land atomically.

        Args:
            label: User identifier; must not be the reserved
                :data:`~repro.core.authenticator.SPOOFER_LABEL`.
            features: Shape ``(n, d)`` embedding matrix (``d`` must
                match the store's first-enrollment dimension).
        """
        self.enroll_batch({label: features})

    def enroll_batch(self, per_user: dict) -> None:
        """Enroll many users with one refit per affected shard.

        Bulk loading n users one :meth:`enroll` at a time refits each
        shard once per member; this entry point groups the updates so a
        10k-user import pays exactly one refit per shard.

        Args:
            per_user: Mapping from user label to embedding matrix.
        """
        if not per_user:
            raise ValueError("need at least one user")
        prepared: dict = {}
        for label, features in per_user.items():
            if label == SPOOFER_LABEL:
                raise ValueError(
                    f"label {SPOOFER_LABEL} is reserved for spoofers"
                )
            features = np.atleast_2d(np.asarray(features, dtype=float))
            if features.size == 0:
                raise ValueError(f"user {label!r}: need at least one sample")
            prepared[label] = features
        with self._lock, ensure_trace(), trace(
            "store.enroll", num_users=len(prepared)
        ) as span:
            dim = self._feature_dim
            for label, features in prepared.items():
                if dim is None:
                    dim = features.shape[1]
                elif features.shape[1] != dim:
                    raise ValueError(
                        f"user {label!r}: expected {dim}-dim embeddings, "
                        f"got {features.shape[1]}"
                    )
            self._feature_dim = dim
            touched: dict[int, ShardState] = {}
            for label, features in prepared.items():
                shard_id = self._assignment.get(label)
                if shard_id is None:
                    shard_id = shard_of(label, self.num_shards)
                state = touched.get(shard_id)
                if state is None:
                    state = touched[shard_id] = self._shard_state(shard_id)
                state.features[label] = features
                self._assignment[label] = shard_id
                self._prefilter.add(label, features)
            for shard_id, state in touched.items():
                self._refit(shard_id, state, reason="enroll")
            span.set("num_shards_refit", len(touched))
            self._commit()

    def revoke(self, label) -> None:
        """Remove one user; subsequent identifications can never return
        them.

        The user's embeddings leave the shard, the shard refits from
        the remaining members (or empties out entirely), and the
        centroid leaves the prefilter — all durably, before the call
        returns.

        Args:
            label: The enrolled user to remove.

        Raises:
            KeyError: When ``label`` is not enrolled.
        """
        with self._lock, ensure_trace(), trace("store.revoke") as span:
            if label not in self._assignment:
                raise KeyError(f"unknown user {label!r}")
            shard_id = self._assignment.pop(label)
            state = self._shard_state(shard_id)
            state.features.pop(label, None)
            self._prefilter.remove(label)
            self._refit(shard_id, state, reason="revoke")
            span.set("shard", shard_id)
            if not self._assignment:
                self._feature_dim = None
            self._commit()

    def _refit(self, shard_id: int, state: ShardState, reason: str) -> None:
        """Refit one shard's gate + SVM from its current members."""
        metrics = pipeline_metrics()
        if metrics is not None:
            metrics.identify_shard_refits.labels(reason=reason).inc()
        if not state.features:
            state.auth = None
            self._states[shard_id] = state
            self._dirty.add(shard_id)
            return
        blocks, labels = [], []
        for label, features in state.features.items():
            blocks.append(features)
            labels.extend([label] * features.shape[0])
        stacked = np.concatenate(blocks)
        state.auth = MultiUserAuthenticator(self.auth_config).fit(
            stacked, np.asarray(labels, dtype=object)
        )
        self._states[shard_id] = state
        self._dirty.add(shard_id)
        # Freeze the shard's enrollment-time score distribution into the
        # security sentinel (when one is installed), so the shard_drift
        # rule compares live identification scores against what the
        # shard looked like the moment it was (re)fitted.  Imported
        # lazily for the same repro.obs/repro.io cycle reason as the
        # ledger below.
        from repro.obs.sentinel import get_security_sentinel

        sentinel = get_security_sentinel()
        if sentinel is not None:
            _, scores = state.auth.decide(stacked)
            values = [float(s) for s in scores]
            if len(values) >= 2:
                sentinel.freeze_shard_baseline(shard_id, values)

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------

    def identify(
        self, features: np.ndarray, k: int | None = None
    ) -> IdentificationResult:
        """Two-stage identification of one attempt's embeddings.

        Stage 1 (``identify.prefilter`` span) ranks every enrolled
        user's centroid against the query and keeps the nearest ``k``.
        Stage 2 (one ``identify.shard`` span per consulted shard)
        visits the candidates' shards in stage-1 rank order and runs
        each one's SVDD gate plus candidate-restricted SVM vote; the
        first shard whose gate accepts any sample decides, and its
        per-sample labels majority-vote into the final identity (ties
        break toward rejection, like the core pipeline).  Raw SVDD
        scores are *not* compared across shards — each shard's gate has
        its own kernel width and radius, so the centroid ranking is the
        only cross-shard signal used.

        Args:
            features: Shape ``(n, d)`` embedding matrix of the attempt.
            k: Candidate-set size override; defaults to the store's
                ``candidate_k``.

        Returns:
            The :class:`IdentificationResult`.

        Raises:
            StorageError: When a consulted shard file is corrupted.
        """
        # Imported lazily: repro.obs.audit builds on repro.io.storage,
        # so a module-level import here would cycle through the package
        # __init__ while repro.obs.audit is still executing.
        from repro.obs.audit import get_audit_ledger

        started = time.perf_counter()
        with correlation_scope(current_request_id()) as request_id:
            result = self._identify_correlated(
                features, k, started, request_id
            )
        ledger = get_audit_ledger()
        if ledger is not None:
            ledger.append(
                "identify",
                request_id,
                user=str(result.label),
                decision="accept" if result.accepted else "reject",
                candidates=[str(c) for c in result.candidates],
                shard=result.shard,
                gate_scores=[float(s) for s in result.gate_scores],
                num_users=result.num_users,
                latency_s=time.perf_counter() - started,
            )
        # Same lazy-import dance as the ledger: the decided shard's gate
        # scores stream into the sentinel's per-shard drift monitors.
        from repro.obs.sentinel import get_security_sentinel

        sentinel = get_security_sentinel()
        if sentinel is not None and result.shard is not None:
            sentinel.observe_identify(
                shard=result.shard,
                gate_scores=result.gate_scores,
                user=str(result.label) if result.accepted else None,
                request_id=request_id,
            )
        return result

    def _identify_correlated(
        self,
        features: np.ndarray,
        k: int | None,
        started: float,
        request_id: str,
    ) -> IdentificationResult:
        # Lazy for the same reason as the ledger import above.
        from repro.obs.capture import get_capture_store

        store = get_capture_store()
        features = np.atleast_2d(np.asarray(features, dtype=float))
        k = self.candidate_k if k is None else k
        with self._lock, ensure_trace(), trace(
            "identify", num_users=len(self), num_samples=features.shape[0]
        ) as span:
            with trace(
                "identify.prefilter", num_users=len(self), k=k
            ) as stage1:
                candidates = self._prefilter.candidates(features, k)
                stage1.set("num_candidates", len(candidates))
            if not candidates:
                span.set("outcome", "empty")
                self._observe_identify("empty", 0, started, request_id)
                result = IdentificationResult(
                    label=SPOOFER_LABEL,
                    accepted=False,
                    num_users=len(self),
                    request_id=request_id,
                )
                self._record_capture(store, span, features, k, result)
                return result
            by_shard: dict[int, list] = {}
            for label in candidates:
                by_shard.setdefault(self._assignment[label], []).append(label)
            # by_shard preserves candidate rank: dict insertion follows
            # the prefilter's nearest-first ordering.
            best = None
            for shard_id, shard_candidates in by_shard.items():
                state = self._shard_state(shard_id)
                with trace(
                    "identify.shard",
                    shard=shard_id,
                    num_candidates=len(shard_candidates),
                ) as stage2:
                    labels, scores = state.auth.decide(
                        features, candidates=shard_candidates
                    )
                    gate_accepted = any(
                        value != SPOOFER_LABEL for value in labels.tolist()
                    )
                    stage2.set("gate_accepted", gate_accepted)
                if best is None:
                    best = (shard_id, labels, scores)
                if gate_accepted:
                    best = (shard_id, labels, scores)
                    break
            shard_id, labels, scores = best
            label = majority_label(labels.tolist())
            accepted = label != SPOOFER_LABEL
            span.set("outcome", "identified" if accepted else "rejected")
            span.set("label", str(label))
            self._observe_identify(
                "identified" if accepted else "rejected",
                len(candidates),
                started,
                request_id,
            )
            result = IdentificationResult(
                label=label,
                accepted=accepted,
                candidates=tuple(candidates),
                shard=shard_id,
                per_sample_labels=tuple(labels.tolist()),
                gate_scores=tuple(float(s) for s in scores),
                num_users=len(self),
                request_id=request_id,
            )
            self._record_capture(store, span, features, k, result)
            return result

    @staticmethod
    def _record_capture(store, span, features, k, result) -> None:
        """Record an identify attempt into the opt-in capture store.

        Stage digests land on the ``identify`` span via
        :meth:`~repro.obs.Span.record_digest`; the input feature matrix
        rides along so :func:`repro.obs.replay.replay_identify` can
        re-run the two-stage lookup against the same store.
        """
        if store is None:
            return
        from repro.obs.capture import (
            RequestCapture,
            StageCollector,
            capture_environment,
            identify_decision_document,
        )

        collector = StageCollector(span)
        collector.stamp("features", features)
        if result.gate_scores:
            collector.stamp(
                "gate_scores",
                np.asarray(result.gate_scores, dtype=float),
            )
        collector.stamp(
            "labels", [str(x) for x in result.per_sample_labels]
        )
        store.record(
            RequestCapture(
                request_id=result.request_id,
                kind="identify",
                environment=capture_environment(),
                stage_digests=dict(collector.digests),
                stage_arrays=dict(collector.arrays),
                decision=identify_decision_document(result),
                features=np.array(features, copy=True),
                identify_k=k,
            )
        )

    def _observe_identify(
        self,
        outcome: str,
        num_candidates: int,
        started: float,
        request_id: str | None = None,
    ) -> None:
        metrics = pipeline_metrics()
        if metrics is None:
            return
        metrics.identify_requests.labels(outcome=outcome).inc()
        metrics.identify_candidates.observe(float(num_candidates))
        elapsed = time.perf_counter() - started
        metrics.identify_latency.labels().observe(
            elapsed,
            exemplar={"request_id": request_id, "value": elapsed},
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _shard_path(self, shard_id: int) -> Path:
        return self.root / "shards" / f"shard_{shard_id:04d}.pkl"

    def _shard_state(self, shard_id: int) -> ShardState:
        """The cached (or lazily loaded) state of one shard."""
        state = self._states.get(shard_id)
        if state is not None:
            return state
        path = self._shard_path(shard_id)
        if path.exists():
            state = load_pickle(path, SHARD_KIND)
        else:
            state = ShardState()
        self._states[shard_id] = state
        return state

    def _commit(self) -> None:
        """Persist every dirty shard, the prefilter and the manifest."""
        self._revision += 1
        for shard_id in sorted(self._dirty):
            state = self._states[shard_id]
            path = self._shard_path(shard_id)
            if state.features:
                save_pickle(path, SHARD_KIND, state)
            elif path.exists():
                os.unlink(path)
        self._dirty.clear()
        self._write_prefilter()
        self._write_manifest()

    def _write_prefilter(self) -> None:
        save_pickle(self.root / "prefilter.pkl", PREFILTER_KIND,
                    self._prefilter)

    def _manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _write_manifest(self) -> None:
        document = {
            "schema": MANIFEST_SCHEMA,
            "kind": MANIFEST_KIND,
            "num_shards": self.num_shards,
            "candidate_k": self.candidate_k,
            "revision": self._revision,
            "feature_dim": self._feature_dim,
            "users": [
                [_label_to_json(label), shard_id]
                for label, shard_id in self._assignment.items()
            ],
        }
        path = self._manifest_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".manifest.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(document, tmp, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _load_manifest(self) -> dict | None:
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise StorageError(
                path, "unreadable", f"{type(err).__name__}: {err}"
            ) from err
        if not isinstance(document, dict) or document.get(
            "kind"
        ) != MANIFEST_KIND:
            raise StorageError(
                path, "wrong-kind",
                f"expected {MANIFEST_KIND!r}",
            )
        if document.get("schema") != MANIFEST_SCHEMA:
            raise StorageError(
                path, "bad-envelope",
                f"schema {document.get('schema')!r} != {MANIFEST_SCHEMA}",
            )
        return document


def _label_to_json(label) -> list:
    """JSON-encode a label, preserving int/float/str round-tripping."""
    if isinstance(label, (np.integer, np.floating, np.str_)):
        label = label.item()
    if isinstance(label, bool) or not isinstance(label, (int, float, str)):
        return ["repr", repr(label)]
    kind = type(label).__name__
    return [kind, label]


def _label_from_json(encoded: list):
    kind, value = encoded
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(value)
    if kind == "str":
        return str(value)
    # "repr" labels cannot be reconstructed; surface them as-is so the
    # mismatch is visible instead of silently renaming a user.
    return value
