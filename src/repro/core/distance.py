"""User–array distance estimation (Section V-B).

The pipeline:

1. band-pass the raw multichannel capture to the chirp band and take its
   analytic signal — all L beeps of an attempt in one stacked call, whose
   rows (:class:`~repro.signal.analytic.AnalyticCaptures`) the imager
   reuses;
2. MVDR-steer the array toward an arbitrary region of the user's upper
   body (``theta = pi/2`` — straight ahead — and ``phi`` in [pi/3, 2pi/3]);
3. matched-filter the beamformed signal against the emitted chirp (Eq. 9)
   and extract the envelope of each correlation sequence;
4. average the squared envelopes over the L beeps (Eq. 10) to suppress
   random interference and keep the stable peaks of static reflectors;
5. search the averaged envelope for local maxima (``MaxSet``); the first
   is the direct speaker→mic chirp; the strongest peak inside the
   0.01 s *echo period* that follows the 0.002 s *chirp period* is the
   body echo;
6. convert the echo delay to the slant distance ``D_f = tau c / 2`` and
   project to the horizontal user–array distance
   ``D_p = D_f sin(phi) sin(theta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.beamforming import Beamformer, MVDRBeamformer
from repro.array.covariance import estimate_noise_covariance
from repro.array.geometry import MicrophoneArray
from repro.acoustics.scene import BeepRecording
from repro.config import BeepConfig, DistanceEstimationConfig
from repro.obs import ensure_trace, trace
from repro.signal.analytic import AnalyticCaptures, smooth_envelope
from repro.signal.chirp import LFMChirp
from repro.signal.correlation import matched_filter
from repro.signal.filters import BandpassFilter
from repro.signal.peaks import LocalMaximum, find_local_maxima


class DistanceEstimationError(RuntimeError):
    """Raised when no plausible body echo can be located.

    The deployed system treats this as "nobody is standing in front of
    the speaker" and refuses the attempt outright.

    Example::

        try:
            estimate = estimator.estimate(recordings)
        except DistanceEstimationError:
            reject_attempt()      # no body echo -> nothing to image
    """


@dataclass(frozen=True)
class DistanceEstimate:
    """Result of the distance estimation stage.

    Attributes:
        slant_distance_m: ``D_f`` — half the round-trip path to the steered
            body region.
        user_distance_m: ``D_p`` — horizontal user–array distance.
        echo_delay_s: Delay ``tau_w'`` of the detected body echo, measured
            from the chirp emission.
        direct_delay_s: Delay ``tau_1`` of the direct speaker→mic arrival.
        averaged_envelope: The averaged squared envelope ``E(t)`` (indexed
            from the emission sample), for inspection / Figure 5 plots.
        max_set: All detected local maxima of ``E(t)``.
        echo_snr_db: Body-echo peak power over the envelope's median
            floor, in dB — the per-attempt channel-quality signal the
            drift monitors watch.
        echo_prominence: Body-echo peak value over the strongest envelope
            peak (1.0 when the body echo *is* the strongest feature).

    Example::

        estimate = estimator.estimate(recordings)
        print(f"user at {estimate.user_distance_m:.2f} m "
              f"(slant {estimate.slant_distance_m:.2f} m, "
              f"{len(estimate.max_set)} envelope peaks)")
        plt.plot(estimate.averaged_envelope)      # the Figure-5 curve
    """

    slant_distance_m: float
    user_distance_m: float
    echo_delay_s: float
    direct_delay_s: float
    averaged_envelope: np.ndarray
    max_set: tuple[LocalMaximum, ...]
    echo_snr_db: float = 0.0
    echo_prominence: float = 0.0


class DistanceEstimator:
    """Correlation-on-beamformed-signal ranging of Section V-B.

    Args:
        array: The microphone array.
        beep: Probing-signal parameters (defines the matched template and
            the band-pass corner frequencies).
        config: Estimator parameters (steering angles, peak search).
        speed_of_sound: Speed of sound in m/s; turns echo delays into
            distances and steers the default MVDR beamformer.
        beamformer_factory: Optional override producing the beamformer from
            ``(array, noise_covariance)`` — used by the ablation benches to
            swap MVDR for delay-and-sum or a single microphone.

    Example::

        from repro import DistanceEstimator
        from repro.array.geometry import respeaker_array

        estimator = DistanceEstimator(array=respeaker_array())
        estimate = estimator.estimate(recordings)   # list of BeepRecording
        print(estimate.user_distance_m)

    ``estimate`` records a ``distance.estimate`` span (one
    ``distance.envelope`` child per beep) into the ambient
    :mod:`repro.obs` trace, opening a standalone trace when none is
    active.  To range and then image the same attempt, build its
    :meth:`captures` once and pass them to both stages::

        captures = estimator.captures(recordings)
        estimate = estimator.estimate(recordings, captures)
        images = imager.images(recordings, plane, captures)
    """

    def __init__(
        self,
        array: MicrophoneArray,
        beep: BeepConfig | None = None,
        config: DistanceEstimationConfig | None = None,
        speed_of_sound: float = 343.0,
        beamformer_factory=None,
    ) -> None:
        self.array = array
        self.beep = beep or BeepConfig()
        self.config = config or DistanceEstimationConfig()
        self.speed_of_sound = speed_of_sound
        self._beamformer_factory = beamformer_factory or (
            lambda arr, cov: MVDRBeamformer(
                array=arr,
                frequency_hz=self.beep.center_hz,
                noise_covariance=cov,
                speed_of_sound=self.speed_of_sound,
            )
        )
        self._bandpass = BandpassFilter(
            low_hz=self.beep.low_hz,
            high_hz=self.beep.high_hz,
            sample_rate=self.beep.sample_rate,
        )
        self._template = LFMChirp.from_config(self.beep).samples()

    def captures(self, recordings: list[BeepRecording]) -> AnalyticCaptures:
        """The attempt's ranging front end, evaluated on first use.

        Band-pass (2–3 kHz) and Hilbert transform of every beep; see
        :class:`~repro.signal.analytic.AnalyticCaptures`.
        """
        return AnalyticCaptures(recordings, self._bandpass)

    def beamformed_signal(
        self, recording: BeepRecording, analytic: np.ndarray | None = None
    ) -> np.ndarray:
        """Beamform one capture's band-passed analytic signal.

        Args:
            recording: The capture.
            analytic: Its row of the attempt's :meth:`captures`; computed
                from ``recording`` when omitted.

        Returns:
            Complex beamformed signal of shape ``(N,)`` steered to the
            configured upper-body direction.
        """
        if analytic is None:
            (analytic,) = self.captures([recording]).rows
        noise_cov = estimate_noise_covariance(
            analytic, noise_samples=recording.emit_index
        )
        beamformer: Beamformer = self._beamformer_factory(
            self.array, noise_cov
        )
        return beamformer.beamform(
            analytic,
            self.config.steer_azimuth_rad,
            self.config.steer_elevation_rad,
        )

    def correlation_envelope(
        self, recording: BeepRecording, analytic: np.ndarray | None = None
    ) -> np.ndarray:
        """Envelope ``E_l(t)`` of the matched-filter output of one beep.

        The returned sequence is re-indexed to start at the emission sample
        so delays read directly as propagation times.  ``analytic`` is as
        in :meth:`beamformed_signal`.
        """
        beamformed = self.beamformed_signal(recording, analytic)
        correlation = matched_filter(np.real(beamformed), self._template)
        envelope = smooth_envelope(
            correlation,
            sample_rate=recording.sample_rate,
            cutoff_hz=self.config.envelope_smoothing_hz,
        )
        return envelope[recording.emit_index :]

    def averaged_envelope(
        self,
        recordings: list[BeepRecording],
        captures: AnalyticCaptures | None = None,
    ) -> np.ndarray:
        """Averaged squared envelope ``E(t)`` over L beeps (Eq. 10).

        ``captures`` are as in :meth:`estimate`.
        """
        if not recordings:
            raise ValueError("need at least one beep recording")
        if captures is None or not captures.matches(
            recordings, self._bandpass
        ):
            captures = self.captures(recordings)
        envelopes = []
        for index, (rec, analytic) in enumerate(
            zip(recordings, captures.rows)
        ):
            with trace(
                "distance.envelope",
                beep=index,
                bytes=int(rec.samples.nbytes),
            ):
                envelopes.append(self.correlation_envelope(rec, analytic))
        length = min(env.size for env in envelopes)
        stacked = np.stack([env[:length] for env in envelopes])
        return np.mean(np.abs(stacked) ** 2, axis=0)

    def estimate(
        self,
        recordings: list[BeepRecording],
        captures: AnalyticCaptures | None = None,
    ) -> DistanceEstimate:
        """Estimate the user–array distance from L beep captures.

        The front end (band-pass and Hilbert transform) runs once for
        all L beeps, inside the ``distance.estimate`` span; the matched
        filter, envelope and MVDR steering then run per beep, each in its
        ``distance.envelope`` span.

        Args:
            recordings: The captures; all must share one sample rate.
            captures: The attempt's :meth:`captures`, which the imager
                then reuses.  Captures of other recordings or of another
                band are ignored and the front end runs here.

        Returns:
            The :class:`DistanceEstimate`.

        Raises:
            DistanceEstimationError: When the direct chirp or a body echo
                cannot be found.
        """
        if not recordings:
            raise ValueError("need at least one beep recording")
        sample_rate = recordings[0].sample_rate
        if any(rec.sample_rate != sample_rate for rec in recordings):
            raise ValueError("all recordings must share one sample rate")
        with ensure_trace(), trace(
            "distance.estimate",
            num_beeps=len(recordings),
            sample_rate=sample_rate,
            bytes=int(sum(rec.samples.nbytes for rec in recordings)),
        ) as span:
            try:
                estimate = self._estimate_traced(
                    recordings, sample_rate, captures
                )
            except DistanceEstimationError:
                span.set("outcome", "no_echo")
                raise
            span.update(
                outcome="ok",
                user_distance_m=estimate.user_distance_m,
                num_peaks=len(estimate.max_set),
                echo_snr_db=estimate.echo_snr_db,
                echo_prominence=estimate.echo_prominence,
            )
            return estimate

    def _estimate_traced(
        self,
        recordings: list[BeepRecording],
        sample_rate: int,
        captures: AnalyticCaptures | None,
    ) -> DistanceEstimate:
        envelope = self.averaged_envelope(recordings, captures)

        threshold = self.config.peak_threshold_ratio * float(envelope.max())
        max_set = find_local_maxima(
            envelope,
            sample_rate=sample_rate,
            min_separation_s=self.config.peak_min_separation_s,
            threshold=threshold,
        )
        if not max_set:
            raise DistanceEstimationError(
                "no local maxima found in the averaged envelope"
            )
        # tau_1: the direct speaker->mic arrival.  The beamformer is steered
        # away from the speaker, so on some geometries the direct peak is
        # suppressed below threshold; the emission instant (known exactly,
        # since the device triggers playback) then serves as the origin.
        direct_time = 0.0
        for peak in max_set:
            if peak.time_s <= self.config.direct_search_window_s:
                direct_time = peak.time_s
                break
        chirp_period_end = direct_time + self.beep.duration_s
        echo_period_end = chirp_period_end + self.config.echo_period_s
        echoes = [
            peak
            for peak in max_set
            if chirp_period_end < peak.time_s <= echo_period_end
        ]
        if not echoes:
            raise DistanceEstimationError(
                f"no echo peak inside the echo period "
                f"({chirp_period_end:.4f}s, {echo_period_end:.4f}s]"
            )
        body_echo = max(echoes, key=lambda peak: peak.value)
        # Sanity: a genuine body echo towers over the envelope's typical
        # level; a flat envelope (empty room, dead input) does not.
        floor = float(np.median(envelope)) + 1e-30
        if body_echo.value < 5.0 * floor:
            raise DistanceEstimationError(
                "echo-period peak is not prominent above the envelope "
                "floor; no body echo present"
            )

        slant = body_echo.time_s * self.speed_of_sound / 2.0
        user_distance = (
            slant
            * np.sin(self.config.steer_elevation_rad)
            * np.sin(self.config.steer_azimuth_rad)
        )
        # Quality telemetry of the matched-filter output: the envelope is
        # a squared magnitude, so peak-over-floor is a power ratio.
        snr_db = 10.0 * np.log10(body_echo.value / floor)
        strongest = max(peak.value for peak in max_set)
        return DistanceEstimate(
            slant_distance_m=float(slant),
            user_distance_m=float(user_distance),
            echo_delay_s=body_echo.time_s,
            direct_delay_s=direct_time,
            averaged_envelope=envelope,
            max_set=tuple(max_set),
            echo_snr_db=float(snr_db),
            echo_prominence=float(body_echo.value / strongest),
        )
