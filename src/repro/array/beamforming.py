"""Beamformers: MVDR (Eq. 8), delay-and-sum, and a single-mic baseline.

All beamformers consume the *complex analytic* multi-channel recording and
produce one complex output channel per look direction.  The narrow-band
model of Section III-C is used: a steering delay at the chirp's centre
frequency is represented as a phase shift (Eq. 7), which is accurate because
the probing beep occupies a 1 kHz band around 2.5 kHz.

Every beamformer is one Hermitian ``(M, M)`` weighting matrix ``P``
(:attr:`Beamformer.weighting_matrix`) with weights
``w(Omega) = P p(Omega) / (p(Omega)^H P p(Omega))``: ``P = rho_n^{-1}`` for
MVDR, ``I`` for delay-and-sum and ``e_i e_i^H`` for the single microphone.
``weights_batch`` evaluates that formula for many look directions at once;
the acoustic imager needs only ``P`` (see :mod:`repro.core.imaging`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.array.covariance import diagonal_loading
from repro.array.geometry import MicrophoneArray
from repro.array.steering import steering_vectors


class Beamformer(abc.ABC):
    """Interface shared by all beamformers."""

    array: MicrophoneArray
    frequency_hz: float

    @property
    @abc.abstractmethod
    def weighting_matrix(self) -> np.ndarray:
        """The Hermitian ``(M, M)`` matrix ``P`` of the weights.

        Look direction ``Omega`` with steering vector ``p`` gets the
        weights ``w = P p / (p^H P p)``, so a window covariance ``R``
        yields the output energy
        ``w^H R w = p^H (P R P) p / (p^H P p)^2``: two Hermitian
        quadratic forms of ``p``, which is how the acoustic imager
        evaluates every grid without forming ``w``.
        """

    def weights_batch(
        self,
        azimuths_rad: np.ndarray,
        elevations_rad: np.ndarray,
        steering: np.ndarray | None = None,
    ) -> np.ndarray:
        """Complex weight vectors ``P p / (p^H P p)`` for many directions.

        Args:
            azimuths_rad: Shape ``(K,)``.
            elevations_rad: Shape ``(K,)``.
            steering: Optional precomputed steering matrix ``(K, M)`` for
                exactly these look directions at :attr:`frequency_hz`, as
                returned by :meth:`steering_batch`; computed internally
                when omitted.

        Returns:
            Complex array of shape ``(K, M)``.

        Raises:
            ValueError: When some ``p^H P p`` is not positive, i.e.
                ``P`` is not positive definite.
        """
        if steering is None:
            steering = self.steering_batch(azimuths_rad, elevations_rad)
        numerator = steering @ self.weighting_matrix.T  # rows P p: (K, M)
        denominator = np.einsum("km,km->k", steering.conj(), numerator)
        if np.any(np.real(denominator) <= 0):
            raise ValueError(
                "beamformer denominator non-positive; the weighting "
                "matrix is not positive definite"
            )
        return numerator / denominator[:, None]

    def steering_batch(
        self, azimuths_rad: np.ndarray, elevations_rad: np.ndarray
    ) -> np.ndarray:
        """Steering vectors this beamformer uses for the look directions.

        Cache-friendly companion of :meth:`weights_batch`: the returned
        ``(K, M)`` matrix depends only on the array geometry, the look
        directions and :attr:`frequency_hz`, so it can be computed once
        and replayed across weight computations via the ``steering=``
        argument.
        """
        return steering_vectors(
            self.array,
            azimuths_rad,
            elevations_rad,
            self.frequency_hz,
            getattr(self, "speed_of_sound", None),
        )

    def weights(self, azimuth_rad: float, elevation_rad: float) -> np.ndarray:
        """Weight vector for a single look direction, shape ``(M,)``."""
        return self.weights_batch(
            np.array([azimuth_rad]), np.array([elevation_rad])
        )[0]

    def beamform(
        self,
        recordings: np.ndarray,
        azimuth_rad: float,
        elevation_rad: float,
    ) -> np.ndarray:
        """Steer the array to one direction and combine the channels.

        Args:
            recordings: Complex analytic recordings of shape ``(M, N)``.
            azimuth_rad: Look-direction azimuth.
            elevation_rad: Look-direction elevation.

        Returns:
            Complex beamformed signal of shape ``(N,)``.
        """
        recordings = _validate_recordings(recordings, self.array.num_mics)
        w = self.weights(azimuth_rad, elevation_rad)
        return w.conj() @ recordings

    def beamform_batch(
        self,
        recordings: np.ndarray,
        azimuths_rad: np.ndarray,
        elevations_rad: np.ndarray,
    ) -> np.ndarray:
        """Beamform one recording toward many directions at once.

        Args:
            recordings: Complex analytic recordings of shape ``(M, N)``.
            azimuths_rad: Shape ``(K,)``.
            elevations_rad: Shape ``(K,)``.

        Returns:
            Complex array of shape ``(K, N)``.
        """
        recordings = _validate_recordings(recordings, self.array.num_mics)
        weights = self.weights_batch(azimuths_rad, elevations_rad)
        return weights.conj() @ recordings

    def power_map(
        self,
        recordings: np.ndarray,
        azimuths_rad: np.ndarray,
        elevations_rad: np.ndarray,
    ) -> np.ndarray:
        """Mean output power per look direction (a conventional beam scan)."""
        outputs = self.beamform_batch(recordings, azimuths_rad, elevations_rad)
        return np.mean(np.abs(outputs) ** 2, axis=-1)


def _validate_recordings(recordings: np.ndarray, num_mics: int) -> np.ndarray:
    recordings = np.asarray(recordings)
    if recordings.ndim != 2:
        raise ValueError(
            f"recordings must be 2-D (M, N), got shape {recordings.shape}"
        )
    if recordings.shape[0] != num_mics:
        raise ValueError(
            f"recordings have {recordings.shape[0]} channels but the array "
            f"has {num_mics} microphones"
        )
    if not np.iscomplexobj(recordings):
        raise ValueError(
            "beamformers operate on the complex analytic signal; apply "
            "repro.signal.analytic_signal first"
        )
    return recordings


@dataclass
class MVDRBeamformer(Beamformer):
    """Minimum variance distortionless response beamformer (Eq. 8).

    The weights are ``w = rho_n^{-1} p_s / (p_s^H rho_n^{-1} p_s)`` where
    ``rho_n`` is the normalized noise covariance.  With ``rho_n = I`` the
    MVDR solution coincides with delay-and-sum.

    Attributes:
        array: Microphone geometry.
        frequency_hz: Narrow-band centre frequency for the steering phases.
        noise_covariance: Normalized Hermitian noise covariance ``rho_n`` of
            shape ``(M, M)``; identity when omitted.
        loading: Diagonal loading applied before inversion.
        speed_of_sound: Speed of sound in m/s.
    """

    array: MicrophoneArray
    frequency_hz: float = constants.CHIRP_CENTER_HZ
    noise_covariance: np.ndarray | None = None
    loading: float = 1e-3
    speed_of_sound: float = constants.SPEED_OF_SOUND
    _inv_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.array.num_mics
        if self.noise_covariance is None:
            cov = np.eye(m, dtype=complex)
        else:
            cov = np.asarray(self.noise_covariance, dtype=complex)
            if cov.shape != (m, m):
                raise ValueError(
                    f"noise covariance shape {cov.shape} does not match the "
                    f"{m}-mic array"
                )
            if not np.allclose(cov, cov.conj().T, atol=1e-8):
                raise ValueError("noise covariance must be Hermitian")
        cov = diagonal_loading(cov, self.loading)
        self._inv_cov = np.linalg.inv(cov)

    @property
    def weighting_matrix(self) -> np.ndarray:
        """``rho_n^{-1}``, the inverse of the loaded noise covariance."""
        return self._inv_cov


@dataclass
class DelayAndSumBeamformer(Beamformer):
    """Classic delay-and-sum beamformer (uniform weights, steering phases).

    Attributes:
        array: Microphone geometry.
        frequency_hz: Narrow-band centre frequency for the steering phases.
        speed_of_sound: Speed of sound in m/s.
    """

    array: MicrophoneArray
    frequency_hz: float = constants.CHIRP_CENTER_HZ
    speed_of_sound: float = constants.SPEED_OF_SOUND

    @property
    def weighting_matrix(self) -> np.ndarray:
        """The identity: ``w = p / (p^H p) = p / M``."""
        return np.eye(self.array.num_mics, dtype=complex)


@dataclass
class SingleMicrophone(Beamformer):
    """Degenerate "beamformer" that listens to one microphone only.

    Used as the no-array ablation baseline: its output ignores the look
    direction entirely.

    Attributes:
        array: Microphone geometry.
        mic_index: Index of the microphone to pass through.
        frequency_hz: Unused; kept for interface parity.
    """

    array: MicrophoneArray
    mic_index: int = 0
    frequency_hz: float = constants.CHIRP_CENTER_HZ

    def __post_init__(self) -> None:
        if not 0 <= self.mic_index < self.array.num_mics:
            raise ValueError(
                f"mic_index {self.mic_index} out of range for "
                f"{self.array.num_mics} microphones"
            )

    @property
    def weighting_matrix(self) -> np.ndarray:
        """``e_i e_i^H``: the projector onto microphone ``mic_index``."""
        weighting = np.zeros((self.array.num_mics,) * 2, dtype=complex)
        weighting[self.mic_index, self.mic_index] = 1.0
        return weighting

    def weights_batch(
        self,
        azimuths_rad: np.ndarray,
        elevations_rad: np.ndarray,
        steering: np.ndarray | None = None,
    ) -> np.ndarray:
        # ``P p / (p^H P p) = e_i / conj(p_i)``: the unit vector up to a
        # unit-modulus phase, which no output power depends on.
        azimuths_rad = np.asarray(azimuths_rad).ravel()
        weights = np.zeros(
            (azimuths_rad.size, self.array.num_mics), dtype=complex
        )
        weights[:, self.mic_index] = 1.0
        return weights
