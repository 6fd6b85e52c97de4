"""End-to-end EchoImage pipeline facade.

``EchoImagePipeline`` glues the three components of Figure 3 together:
distance estimation → image construction → user authentication.  It is the
object application code interacts with; the individual components remain
available for research use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.array.geometry import MicrophoneArray, respeaker_array
from repro.acoustics.scene import BeepRecording
from repro.config import EchoImageConfig, ExitPolicy
from repro.core.authenticator import (
    SPOOFER_LABEL,
    MultiUserAuthenticator,
    SingleUserAuthenticator,
    StreamSnapshot,
    majority_label,
)
from repro.core.distance import DistanceEstimate, DistanceEstimator
from repro.core.enrollment import build_training_features, stack_user_features
from repro.core.features import FeatureExtractor
from repro.core.imaging import AcousticImager, ImagingPlane
from repro.obs import (
    DriftBaseline,
    PipelineTrace,
    correlation_scope,
    current_request_id,
    start_trace,
    trace,
)
from repro.obs.capture import (
    RequestCapture,
    StageCollector,
    capture_environment,
    capture_recorder,
    decision_document,
)
from repro.signal.analytic import AnalyticCaptures


@dataclass(frozen=True)
class AuthenticationResult:
    """Outcome of one authentication attempt.

    Attributes:
        label: The identified user label, or ``SPOOFER_LABEL`` when
            rejected.
        accepted: Convenience flag (``label != SPOOFER_LABEL``).
        distance: The distance estimate the imaging plane was placed at.
        per_beep_labels: Raw per-beep decisions before majority voting.
        trace: Per-attempt :class:`~repro.obs.PipelineTrace` — the span
            tree covering distance estimation (``distance.estimate``),
            one ``stream.beep`` per consumed beep holding its imaging
            (``imaging.image`` with one ``imaging.band`` child per
            sub-band) and feature extraction (``features.extract``),
            and the SVDD/SVM decision (``auth.predict``).  Render it
            with ``result.trace.format()`` or aggregate many with
            :func:`repro.obs.aggregate`.
        scores: Per-beep SVDD decision scores (positive = inside the
            registered description) — the raw values behind
            ``per_beep_labels``.
        margins: Per-beep normalised SVM vote margins (multi-user
            enrollment only; ``nan`` for beeps the SVDD gate rejected,
            empty for single-user enrollment) — the classifier's
            confidence behind each identified label, surfaced for the
            audit ledger.
        request_id: Correlation id of the attempt — inherited from the
            ambient :func:`repro.obs.correlation_scope` (e.g. the
            serving layer's) or minted fresh for standalone calls; the
            same id appears on the attempt's trace and audit-ledger
            entry.
        beeps_used: How many beeps the decision actually consumed — the
            attempt length unless an enabled exit policy of
            :meth:`EchoImagePipeline.authenticate_streaming` stopped
            early.
        early_exit: Whether that policy stopped before the last beep
            (always ``False`` for :meth:`EchoImagePipeline.authenticate`).

    Example:
        Inspect where an attempt spent its time::

            result = pipeline.authenticate(recordings)
            print(result.trace.format())
            imaging_ms = 1e3 * sum(
                s.duration_s for s in result.trace.find("imaging.image"))
    """

    label: object
    accepted: bool
    distance: DistanceEstimate
    per_beep_labels: tuple
    trace: PipelineTrace | None = None
    scores: tuple = ()
    margins: tuple = ()
    request_id: str | None = None
    beeps_used: int = 0
    early_exit: bool = False


class EchoImagePipeline:
    """The full EchoImage system (Figure 3).

    Args:
        config: Bundled stage configurations.
        array: Microphone geometry (defaults to the ReSpeaker array).
        speed_of_sound: Speed of sound in m/s.
        feature_mode: "cnn" (paper design) or "raw" (ablation).

    Example::

        from repro import EchoImagePipeline

        pipeline = EchoImagePipeline()
        pipeline.enroll_user(enroll_recordings)     # >= a handful of beeps
        result = pipeline.authenticate(attempt_recordings)
        if result.accepted:
            unlock()
        print(result.trace.format())                # per-stage wall times

    See the package docstring of :mod:`repro` for a complete runnable
    quickstart (synthetic scene included), and
    ``docs/ARCHITECTURE.md`` for the stage-by-stage walkthrough.
    ``authenticate`` / ``enroll_user(s)`` open a :mod:`repro.obs` trace
    (spans ``authenticate`` / ``enroll``) delivered to registered sinks
    such as :class:`repro.obs.Profiler`.

    Enrollment images all of a user's beeps in one
    :meth:`~repro.core.imaging.AcousticImager.images` call;
    ``authenticate`` and ``authenticate_streaming`` run one attempt
    loop that images and featurises one beep at a time.  A beep's image
    is bitwise the same either way.
    """

    def __init__(
        self,
        config: EchoImageConfig | None = None,
        array: MicrophoneArray | None = None,
        speed_of_sound: float = 343.0,
        feature_mode: str = "cnn",
    ) -> None:
        self.config = config or EchoImageConfig()
        self.array = array or respeaker_array()
        self.distance_estimator = DistanceEstimator(
            array=self.array,
            beep=self.config.beep,
            config=self.config.distance,
            speed_of_sound=speed_of_sound,
        )
        self.imager = AcousticImager(
            array=self.array,
            beep=self.config.beep,
            config=self.config.imaging,
            speed_of_sound=speed_of_sound,
        )
        self.feature_extractor = FeatureExtractor(
            self.config.features, mode=feature_mode
        )
        #: The registration-time ``auth.score`` distribution, frozen
        #: from the enrollment decision scores.  A
        #: :class:`repro.serve.ModelBundle` carries it to the serving
        #: layer, whose drift suite watches served scores against it.
        self.score_baseline: DriftBaseline | None = None
        self._multi_auth: MultiUserAuthenticator | None = None
        self._single_auth: SingleUserAuthenticator | None = None

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def estimate_distance(
        self,
        recordings: list[BeepRecording],
        captures: AnalyticCaptures | None = None,
    ) -> DistanceEstimate:
        """Estimate the user–array distance from beep captures.

        ``captures`` are the attempt's band-passed analytic captures
        (``self.distance_estimator.captures(recordings)``), which ranging
        fills and imaging then reuses.
        """
        return self.distance_estimator.estimate(recordings, captures)

    def imaging_plane(self, distance_m: float) -> ImagingPlane:
        """The imaging plane for a (typically estimated) user distance."""
        return ImagingPlane.from_config(distance_m, self.config.imaging)

    def construct_images(
        self,
        recordings: list[BeepRecording],
        distance_m: float | None = None,
    ) -> tuple[list[np.ndarray], ImagingPlane]:
        """Distance-estimate (unless given) and image every beep.

        Args:
            recordings: Beep captures of one authentication attempt.
            distance_m: Optional known distance; estimated when omitted.

        Returns:
            ``(images, plane)`` — one image per beep plus the plane used.
        """
        captures = self.distance_estimator.captures(recordings)
        if distance_m is None:
            distance_m = self.estimate_distance(
                recordings, captures
            ).user_distance_m
        plane = self.imaging_plane(distance_m)
        return self.imager.images(recordings, plane, captures), plane

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------

    def enroll_user(
        self,
        recordings: list[BeepRecording],
        augment_distances_m: list[float] | None = None,
    ) -> SingleUserAuthenticator:
        """Single-user enrollment (Section V-E, one-class SVDD).

        Args:
            recordings: The legitimate user's enrollment captures.
            augment_distances_m: Optional augmentation distances.

        Returns:
            The fitted single-user authenticator (also stored internally).
        """
        with start_trace(), trace(
            "enroll", num_beeps=len(recordings), users=1
        ):
            images, plane = self.construct_images(recordings)
            features = build_training_features(
                images, plane, self.feature_extractor, augment_distances_m
            )
            auth = SingleUserAuthenticator(self.config.auth).fit(features)
        self.score_baseline = DriftBaseline.from_values(
            np.ravel(auth.decision_function(features))
        )
        self._single_auth = auth
        self._multi_auth = None
        return auth

    def enroll_users(
        self,
        per_user_recordings: dict,
        augment_distances_m: list[float] | None = None,
    ) -> MultiUserAuthenticator:
        """Multi-user enrollment (SVDD gate + n-class SVM).

        Args:
            per_user_recordings: Mapping from user label to that user's
                enrollment captures.
            augment_distances_m: Optional augmentation distances.

        Returns:
            The fitted multi-user authenticator (also stored internally).
        """
        with start_trace(), trace(
            "enroll", users=len(per_user_recordings)
        ):
            per_user_features = {}
            for label, recordings in per_user_recordings.items():
                images, plane = self.construct_images(recordings)
                per_user_features[label] = build_training_features(
                    images, plane, self.feature_extractor, augment_distances_m
                )
            features, labels = stack_user_features(per_user_features)
            auth = MultiUserAuthenticator(self.config.auth).fit(
                features, labels
            )
        self.score_baseline = DriftBaseline.from_values(
            np.ravel(auth.spoofer_scores(features))
        )
        self._multi_auth = auth
        self._single_auth = None
        return auth

    def adopt_enrollment(
        self,
        single_auth: SingleUserAuthenticator | None = None,
        multi_auth: MultiUserAuthenticator | None = None,
        score_baseline=None,
    ) -> None:
        """Install already-fitted authenticators (model-bundle restore).

        The serving layer snapshots fitted enrollment state once
        (:class:`repro.serve.ModelBundle`) and replays it into worker
        pipelines with this method instead of re-running enrollment per
        worker.  Exactly one authenticator must be provided.

        Args:
            single_auth: A fitted single-user authenticator.
            multi_auth: A fitted multi-user authenticator.
            score_baseline: The registration-time score distribution
                (:class:`repro.obs.DriftBaseline`) that came with the
                authenticator, kept as :attr:`score_baseline`.
        """
        if (single_auth is None) == (multi_auth is None):
            raise ValueError(
                "provide exactly one of single_auth or multi_auth"
            )
        auth = single_auth if single_auth is not None else multi_auth
        if not auth.is_fitted:
            raise ValueError("authenticator is not fitted")
        self._single_auth = single_auth
        self._multi_auth = multi_auth
        self.score_baseline = score_baseline

    # ------------------------------------------------------------------
    # Authentication
    # ------------------------------------------------------------------

    def authenticate(
        self, recordings: list[BeepRecording]
    ) -> AuthenticationResult:
        """Authenticate one attempt (several beeps) by majority vote.

        Every beep is imaged on the plane at the estimated distance,
        featurised and labelled, and the per-beep labels are
        majority-voted (Sections V-C to V-E).  This is
        :meth:`authenticate_streaming` with the exit disabled.

        Args:
            recordings: Beep captures of the attempt.

        Returns:
            The :class:`AuthenticationResult`, whose ``trace`` field holds
            the per-attempt stage breakdown.

        Raises:
            RuntimeError: When no enrollment has happened yet.
        """
        return self._attempt(recordings, None)

    def authenticate_streaming(
        self,
        recordings: list[BeepRecording],
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResult:
        """Authenticate by feeding beeps incrementally with early exit.

        Beeps are imaged, featurised and scored one at a time; once the
        running per-beep aggregate clears ``exit_policy`` (see
        :class:`repro.config.ExitPolicy`) the remaining beeps are never
        imaged, so exiting after beep ``k`` of ``L`` saves roughly
        ``(L - k)/L`` of the imaging and feature-extraction cost.

        Exactness contract: the *final* decision always comes from one
        batch ``decide`` call over the consumed feature rows — the
        incremental per-beep scores drive only the exit check, because
        per-row kernel evaluation is ULP-close but not bitwise equal to
        the batch GEMM.  With the policy disabled
        (``score_threshold = inf``, the default) no beep is scored
        incrementally and this method runs exactly what
        :meth:`authenticate` runs — decision, scores and margins
        bit-for-bit (pinned by
        ``tests/serve/test_streaming_properties.py``); only the
        capture's ``kind`` and ``exit_policy`` tell the two apart.

        The distance estimate intentionally uses the *full* attempt:
        ranging averages the beep envelopes (Eq. 10), and sharing it
        keeps the imaging plane — and therefore the consumed-prefix
        features — independent of the exit point.  That makes ranging
        the one stage early exit cannot shorten, and on the
        ``stream_observed`` serving benchmark (8-beep attempts, early
        exit) it is the largest served stage: a traced
        ``distance.estimate`` took 34–40 ms per request on a 2-vCPU VM
        (one BLAS thread) while every beep's filters were designed and
        applied one beep at a time, and 21–26 ms with the stacked front
        end.  Ranging band-passes and Hilbert-transforms all L beeps
        once, and beep ``k`` images from row ``k`` of those captures.

        Args:
            recordings: Beep captures of the attempt.
            exit_policy: Early-exit policy; ``None`` uses the default
                (disabled) policy.

        Returns:
            The :class:`AuthenticationResult`, with ``beeps_used`` /
            ``early_exit`` describing how much of the attempt was
            consumed.
        """
        return self._attempt(recordings, exit_policy or ExitPolicy())

    def _attempt(
        self,
        recordings: list[BeepRecording],
        exit_policy: ExitPolicy | None,
    ) -> AuthenticationResult:
        """The attempt loop behind both entry points.

        Ranges once, then images and featurises beep by beep (one
        ``stream.beep`` span each); only an enabled ``exit_policy``
        feeds the per-beep scores to a
        :class:`~repro.core.authenticator.DecisionStream` and checks for
        an early exit.  ``exit_policy`` is ``None`` for
        :meth:`authenticate`, which the capture records as such.
        """
        auth = (
            self._multi_auth
            if self._multi_auth is not None
            else self._single_auth
        )
        if auth is None:
            raise RuntimeError(
                "no users enrolled; call enroll_user or enroll_users first"
            )
        stream = None
        if exit_policy is not None and exit_policy.enabled:
            stream = auth.begin_stream()
        margins: tuple = ()
        record = capture_recorder()
        collector = None
        with correlation_scope(current_request_id()) as request_id:
            with start_trace() as attempt_trace:
                with trace(
                    "authenticate",
                    num_beeps=len(recordings),
                    streaming=exit_policy is not None,
                ) as root:
                    captures = self.distance_estimator.captures(recordings)
                    distance = self.estimate_distance(recordings, captures)
                    plane = self.imaging_plane(distance.user_distance_m)
                    rows: list[np.ndarray] = []
                    images: list[np.ndarray] = []
                    early = False
                    for index, recording in enumerate(recordings):
                        with trace("stream.beep", beep_index=index) as beep:
                            (image,) = self.imager.images(
                                [recording], plane, captures[index : index + 1]
                            )
                            row = self.feature_extractor.extract([image])
                            rows.append(row)
                            if record is not None:
                                images.append(image)
                            if stream is not None:
                                snapshot = stream.push(row)
                                beep.update(
                                    mean_score=snapshot.mean_score,
                                    unanimous=snapshot.unanimous,
                                )
                        if stream is not None and _should_exit(
                            exit_policy, snapshot
                        ):
                            early = index + 1 < len(recordings)
                            break
                    features = np.concatenate(rows, axis=0)
                    if record is not None:
                        collector = StageCollector(root)
                        collector.stamp(
                            "distance", _distance_vector(distance)
                        )
                        collector.stamp("images", np.stack(images))
                        collector.stamp("features", features)

                    if self._multi_auth is not None:
                        labels, scores, raw_margins = (
                            self._multi_auth.decide_detailed(features)
                        )
                        per_beep = tuple(labels.tolist())
                        margins = tuple(float(m) for m in raw_margins)
                    else:
                        accepted, scores = self._single_auth.decide(features)
                        per_beep = tuple(
                            "user" if flag else SPOOFER_LABEL
                            for flag in accepted
                        )

                    label = majority_label(per_beep)
                    if collector is not None:
                        collector.stamp(
                            "scores", np.asarray(scores, dtype=float)
                        )
                        if margins:
                            collector.stamp(
                                "margins",
                                np.asarray(margins, dtype=float),
                            )
                        collector.stamp("labels", list(per_beep))
                    root.update(
                        label=str(label),
                        accepted=label != SPOOFER_LABEL,
                        beeps_used=len(rows),
                        early_exit=early,
                    )
        result = AuthenticationResult(
            label=label,
            accepted=label != SPOOFER_LABEL,
            distance=distance,
            per_beep_labels=per_beep,
            trace=attempt_trace,
            scores=tuple(float(s) for s in scores),
            margins=margins,
            request_id=request_id,
            beeps_used=len(rows),
            early_exit=early,
        )
        if record is not None:
            self._record_capture(
                record, result, collector, tuple(recordings), exit_policy
            )
        return result

    def _record_capture(
        self,
        record,
        result: AuthenticationResult,
        collector,
        recordings: tuple,
        exit_policy: ExitPolicy | None,
    ) -> None:
        """Hand one successful attempt's capture to ``record``.

        ``self.config`` is the *resolved* config of this pipeline — for
        a degraded ladder retry that is the degraded config, and
        ``recordings`` is the (possibly subset-selected) input the
        attempt actually consumed, so replaying the capture re-executes
        exactly what served the request.  The serving fan-out adds the
        bundle hash, degradation, tenant, backend and ``via``.
        """
        record(
            RequestCapture(
                request_id=result.request_id,
                kind="stream" if exit_policy is not None else "authenticate",
                captured_at=time.time(),
                environment=capture_environment(),
                stage_digests=dict(collector.digests),
                stage_arrays=dict(collector.arrays),
                decision=decision_document(result),
                recordings=recordings,
                config=self.config,
                exit_policy=exit_policy,
                feature_mode=self.feature_extractor.mode,
                trace=(
                    result.trace.to_dict()
                    if result.trace is not None
                    else None
                ),
            )
        )


def _distance_vector(distance: DistanceEstimate) -> np.ndarray:
    """The replay-comparable numeric summary of a distance estimate."""
    return np.array(
        [
            distance.user_distance_m,
            distance.slant_distance_m,
            distance.echo_snr_db,
        ],
        dtype=float,
    )


def _should_exit(policy: ExitPolicy, snapshot: StreamSnapshot) -> bool:
    """Whether the running aggregate clears the early-exit policy.

    Conjunctive: enough beeps, unanimous prefix labels, score magnitude
    over the threshold and — on an accept with margin evidence — margin
    over its floor.  Missing margin evidence (single-user enrollment or
    the degenerate one-registered-user SVM) waives the margin term.
    """
    if not policy.enabled:
        return False
    if snapshot.beeps < policy.min_beeps:
        return False
    if not snapshot.unanimous:
        return False
    if abs(snapshot.mean_score) < policy.score_threshold:
        return False
    accepting = snapshot.labels[-1] != SPOOFER_LABEL
    if accepting and snapshot.mean_margin is not None:
        return snapshot.mean_margin >= policy.margin_threshold
    return True
