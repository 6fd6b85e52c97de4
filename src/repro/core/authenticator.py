"""SVM-based user authentication (Section V-E).

Two operating modes mirror the paper:

* **single-user** — only the legitimate user's enrollment data exists, so a
  one-class SVDD decides accept/reject;
* **multi-user** — an SVDD trained on *all* registered users' data gates
  out spoofers, and an n-class (one-vs-one) SVM then identifies which
  registered user is present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import numpy as _np

from repro.config import AuthenticationConfig
from repro.ml.kernels import Kernel, median_heuristic_gamma
from repro.obs import ensure_trace, trace
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.scaler import StandardScaler
from repro.ml.svdd import SVDD

#: Label returned for samples the spoofer gate rejects.
SPOOFER_LABEL: int = -1


def majority_label(labels) -> object:
    """Most frequent label; ties break toward rejection, then order."""
    counts: dict = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    winners = [label for label, count in counts.items() if count == best]
    if SPOOFER_LABEL in winners:
        return SPOOFER_LABEL
    return winners[0]


@dataclass(frozen=True)
class StreamSnapshot:
    """Running aggregate after one incremental per-beep push.

    The snapshot drives early-exit *checks* only: per-row kernel scores
    are ULP-close — not bitwise identical — to the batch path (BLAS may
    dispatch a GEMV for one row where the batch runs a GEMM), so any
    final decision must come from one batch ``decide`` call over all
    consumed rows.

    Attributes:
        beeps: Rows pushed so far.
        labels: Per-beep decisions so far (``SPOOFER_LABEL`` for
            gate-rejected rows; the single-user stream uses ``"user"``).
        mean_score: Running mean SVDD decision score.
        mean_margin: Running mean SVM vote margin over gate-accepted
            rows, or ``None`` when no margin evidence exists yet
            (single-user enrollment, the degenerate one-registered-user
            SVM, or every row rejected).
        unanimous: Whether every per-beep label so far agrees.
    """

    beeps: int
    labels: tuple
    mean_score: float
    mean_margin: float | None
    unanimous: bool


class DecisionStream:
    """Incremental per-beep decision aggregate for streaming serving.

    Obtained from ``begin_stream()`` on a fitted authenticator.  Each
    :meth:`push` scales one feature row through the enrollment-frozen
    scaler, scores it against the SVDD gate and (multi-user, when the
    gate accepts) votes it through the one-vs-one SVM, returning the
    updated :class:`StreamSnapshot`.  It opens no span, so no metric
    comes from here — the final batch ``decide`` call's span carries
    the scores, exactly as in the non-streaming path.
    """

    def __init__(self, scaler, svdd, svm=None, lone_label=None) -> None:
        self._scaler = scaler
        self._score_stream = svdd.begin_stream()
        self._vote_stream = svm.begin_stream() if svm is not None else None
        self._lone_label = lone_label
        self._labels: list = []

    def push(self, row: _np.ndarray) -> StreamSnapshot:
        """Score one (unscaled) feature row; returns the running state."""
        row = _np.atleast_2d(_np.asarray(row, dtype=float))
        scaled = self._scaler.transform(row)
        score = self._score_stream.push(scaled)
        if score >= 0.0:
            if self._vote_stream is not None:
                label, _ = self._vote_stream.push(scaled)
            else:
                label = self._lone_label
        else:
            label = SPOOFER_LABEL
        self._labels.append(label)
        if self._vote_stream is not None and self._vote_stream.count:
            mean_margin = self._vote_stream.mean_margin
        else:
            mean_margin = None
        return StreamSnapshot(
            beeps=len(self._labels),
            labels=tuple(self._labels),
            mean_score=self._score_stream.mean_score,
            mean_margin=mean_margin,
            unanimous=len(set(self._labels)) <= 1,
        )


def _svm_kernel(config: AuthenticationConfig) -> Kernel:
    return Kernel("rbf", gamma=config.kernel_gamma)


def _svdd_kernel(
    config: AuthenticationConfig, features: _np.ndarray
) -> Kernel:
    """SVDD kernel with the scaled median-heuristic gamma."""
    if config.kernel_gamma is not None:
        gamma = config.kernel_gamma
    else:
        gamma = config.svdd_gamma_scale * median_heuristic_gamma(features)
    return Kernel("rbf", gamma=gamma)


class SingleUserAuthenticator:
    """One-class authenticator for the single-user scenario.

    Args:
        config: SVDD hyper-parameters.

    Example:
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> enrolled = rng.normal(size=(30, 4))         # one user's features
        >>> auth = SingleUserAuthenticator().fit(enrolled)
        >>> accepted = auth.predict(rng.normal(size=(5, 4)))
        >>> accepted.shape, accepted.dtype.kind         # bool per sample
        ((5,), 'b')

    ``predict`` records an ``auth.predict`` span (``mode="svdd"``,
    ``num_samples``, ``num_accepted``) into the ambient
    :mod:`repro.obs` trace.
    """

    def __init__(self, config: AuthenticationConfig | None = None) -> None:
        self.config = config or AuthenticationConfig()
        self._scaler = StandardScaler()
        self._svdd: SVDD | None = None
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed (decisions are available)."""
        return self._fitted and self._svdd is not None

    def fit(self, features: np.ndarray) -> "SingleUserAuthenticator":
        """Enroll the legitimate user from their feature matrix.

        Args:
            features: Shape ``(n, d)`` feature matrix of the single user.

        Returns:
            ``self``.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        scaled = self._scaler.fit_transform(features)
        self._svdd = SVDD(
            c=self.config.svdd_c,
            kernel=_svdd_kernel(self.config, scaled),
            margin=self.config.svdd_margin,
            radius_quantile=self.config.svdd_radius_quantile,
        )
        self._svdd.fit(scaled)
        self._fitted = True
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Positive for accepted samples (inside the user's description)."""
        if not self._fitted or self._svdd is None:
            raise RuntimeError("authenticator not fitted; call fit(...) first")
        return self._svdd.decision_function(self._scaler.transform(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """``True`` per sample when accepted as the legitimate user."""
        return self.decide(features)[0]

    def decide(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``(accepted, decision_scores)``.

        The scores are what the drift monitors watch; ``predict`` is the
        thresholded view (``score >= 0``).
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        with ensure_trace(), trace(
            "auth.predict", mode="svdd", num_samples=features.shape[0]
        ) as span:
            scores = self.decision_function(features)
            accepted = scores >= 0.0
            span.update(
                num_accepted=int(np.count_nonzero(accepted)),
                scores=tuple(float(score) for score in scores),
            )
            return accepted, scores

    def begin_stream(self, lone_label: object = "user") -> DecisionStream:
        """An incremental per-beep scorer for streaming authentication.

        Args:
            lone_label: Label reported for gate-accepted rows (the
                pipeline's per-beep convention is ``"user"``).
        """
        if not self._fitted or self._svdd is None:
            raise RuntimeError("authenticator not fitted; call fit(...) first")
        return DecisionStream(
            self._scaler, self._svdd, svm=None, lone_label=lone_label
        )


class MultiUserAuthenticator:
    """SVDD spoofer gate + n-class SVM cascade for n registered users.

    Args:
        config: SVDD / SVM hyper-parameters.

    Example:
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> features = np.concatenate(
        ...     [rng.normal(0, 1, (20, 3)), rng.normal(5, 1, (20, 3))])
        >>> labels = np.repeat([1, 2], 20)
        >>> auth = MultiUserAuthenticator().fit(features, labels)
        >>> predicted = auth.predict(features[:3])
        >>> set(predicted) <= {1, 2, SPOOFER_LABEL}     # user id or gate reject
        True

    ``predict`` records an ``auth.predict`` span (``mode="svdd+svm"``)
    with ``auth.svdd`` / ``auth.svm`` child spans into the ambient
    :mod:`repro.obs` trace.
    """

    def __init__(self, config: AuthenticationConfig | None = None) -> None:
        self.config = config or AuthenticationConfig()
        self._scaler = StandardScaler()
        self._svdd: SVDD | None = None
        self._svm = OneVsOneSVC(
            c=self.config.svm_c, kernel=_svm_kernel(self.config)
        )
        self.user_labels_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed (decisions are available)."""
        return self.user_labels_ is not None and self._svdd is not None

    def fit(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "MultiUserAuthenticator":
        """Enroll all registered users.

        Args:
            features: Shape ``(n, d)`` feature matrix of all users' data.
            labels: Shape ``(n,)`` user identifiers (must not contain
                ``SPOOFER_LABEL``).

        Returns:
            ``self``.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels).ravel()
        if features.shape[0] != labels.size:
            raise ValueError(
                f"{features.shape[0]} samples but {labels.size} labels"
            )
        if np.any(labels == SPOOFER_LABEL):
            raise ValueError(
                f"label {SPOOFER_LABEL} is reserved for spoofers"
            )
        scaled = self._scaler.fit_transform(features)
        # Gate: all legitimate users' data as a single class.
        self._svdd = SVDD(
            c=self.config.svdd_c,
            kernel=_svdd_kernel(self.config, scaled),
            margin=self.config.svdd_margin,
            radius_quantile=self.config.svdd_radius_quantile,
        )
        self._svdd.fit(scaled)
        if np.unique(labels).size >= 2:
            self._svm.fit(scaled, labels)
            self._svm_active = True
        else:
            # Degenerate single-registered-user case: the gate suffices.
            self._svm_active = False
        self.user_labels_ = np.unique(labels)
        return self

    def spoofer_scores(self, features: np.ndarray) -> np.ndarray:
        """SVDD decision values (positive = looks like a registered user)."""
        if self.user_labels_ is None or self._svdd is None:
            raise RuntimeError("authenticator not fitted; call fit(...) first")
        return self._svdd.decision_function(self._scaler.transform(features))

    def predict(
        self, features: np.ndarray, candidates=None
    ) -> np.ndarray:
        """Authenticate a batch of samples.

        Args:
            features: Shape ``(n, d)`` feature matrix.
            candidates: Optional subset of the registered users to
                identify among — the sub-linear path of the sharded
                enrollment store restricts the SVM vote to the
                prefilter's candidate set.

        Returns:
            Per-sample label: the identified user id, or ``SPOOFER_LABEL``
            when the SVDD gate rejects the sample.
        """
        return self.decide(features, candidates=candidates)[0]

    def decide(
        self, features: np.ndarray, candidates=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``(labels, svdd_scores)``.

        The gate scores feed the drift monitors; accepted samples also
        put their n-class SVM vote margins on the ``auth.svm`` span.
        ``candidates`` restricts the SVM vote as in :meth:`predict`.
        """
        labels, scores, _ = self.decide_detailed(
            features, candidates=candidates
        )
        return labels, scores

    def decide_detailed(
        self, features: np.ndarray, candidates=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-sample ``(labels, svdd_scores, svm_margins)``.

        Identical compute to :meth:`decide` — the margins are always
        calculated, for the ``auth.svm`` span — but the per-sample SVM
        vote margins are returned instead of discarded, so the audit
        ledger can record the classifier's confidence behind each
        decision.  Margins are ``nan`` for samples the SVDD gate
        rejected (no vote happened) and when the degenerate
        single-registered-user path skips the SVM entirely.
        """
        if self.user_labels_ is None or self._svdd is None:
            raise RuntimeError("authenticator not fitted; call fit(...) first")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        with ensure_trace(), trace(
            "auth.predict", mode="svdd+svm", num_samples=features.shape[0]
        ) as span:
            scaled = self._scaler.transform(features)
            with trace("auth.svdd", num_samples=features.shape[0]):
                scores = self._svdd.decision_function(scaled)
                accepted = scores >= 0.0
            num_accepted = int(np.count_nonzero(accepted))
            span.update(
                num_accepted=num_accepted,
                scores=tuple(float(score) for score in scores),
            )
            result = np.full(features.shape[0], SPOOFER_LABEL, dtype=object)
            full_margins = np.full(features.shape[0], np.nan)
            if accepted.any():
                if self._svm_active:
                    with trace(
                        "auth.svm",
                        num_samples=num_accepted,
                    ) as svm_span:
                        labels, margins = self._svm.predict_with_margins(
                            scaled[accepted], candidates=candidates
                        )
                        result[accepted] = labels
                        full_margins[accepted] = margins
                        svm_span.set(
                            "margins",
                            tuple(float(margin) for margin in margins),
                        )
                else:
                    result[accepted] = self.user_labels_[0]
            return result, scores, full_margins

    def begin_stream(self) -> DecisionStream:
        """An incremental per-beep scorer for streaming authentication."""
        if self.user_labels_ is None or self._svdd is None:
            raise RuntimeError("authenticator not fitted; call fit(...) first")
        return DecisionStream(
            self._scaler,
            self._svdd,
            svm=self._svm if self._svm_active else None,
            lone_label=self.user_labels_[0],
        )
