"""Tests for MVDR (Eq. 8), delay-and-sum and single-mic beamformers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.beamforming import (
    DelayAndSumBeamformer,
    MVDRBeamformer,
    SingleMicrophone,
)
from repro.array.geometry import respeaker_array
from repro.array.steering import steering_vector, tdoa


def plane_wave(array, theta, phi, freq=2500.0, fs=48_000.0, n=2400):
    """Complex analytic plane wave from direction (theta, phi)."""
    t = np.arange(n) / fs
    delays = tdoa(array, theta, phi)
    return np.exp(2j * np.pi * freq * (t[None, :] - delays[:, None]))


class TestMVDR:
    def test_distortionless_constraint(self):
        # w^H p_s = 1 for any noise covariance.
        array = respeaker_array()
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cov = raw @ raw.conj().T / 6 + np.eye(6)
        cov /= np.real(np.trace(cov)) / 6
        bf = MVDRBeamformer(array=array, noise_covariance=cov)
        for theta, phi in [(0.3, 0.6), (np.pi / 2, np.pi / 3), (4.0, 2.0)]:
            w = bf.weights(theta, phi)
            p = steering_vector(array, theta, phi, bf.frequency_hz)
            assert np.vdot(w, p) == pytest.approx(1.0, abs=1e-9)

    def test_identity_noise_equals_delay_and_sum(self):
        array = respeaker_array()
        mvdr = MVDRBeamformer(array=array, loading=0.0)
        das = DelayAndSumBeamformer(array=array)
        w1 = mvdr.weights(1.0, 1.2)
        w2 = das.weights(1.0, 1.2)
        assert np.allclose(w1, w2)

    def test_steered_signal_recovered(self):
        array = respeaker_array()
        theta, phi = np.pi / 2, np.pi / 2
        wave = plane_wave(array, theta, phi)
        bf = MVDRBeamformer(array=array)
        out = bf.beamform(wave, theta, phi)
        # Distortionless: output equals the origin-referenced wave.
        t = np.arange(2400) / 48_000
        reference = np.exp(2j * np.pi * 2500.0 * t)
        assert np.allclose(out, reference, atol=1e-6)

    def test_interferer_suppressed_by_adaptive_null(self):
        array = respeaker_array()
        # Noise covariance built from an interferer at a known direction.
        interferer = steering_vector(array, 0.0, np.pi / 2, 2500.0)
        cov = np.outer(interferer, interferer.conj()) + 0.01 * np.eye(6)
        cov /= np.real(np.trace(cov)) / 6
        bf = MVDRBeamformer(array=array, noise_covariance=cov, loading=1e-4)
        # Beamform toward a different direction; interferer gain is small.
        w = bf.weights(np.pi / 2, np.pi / 2)
        gain_interferer = abs(np.vdot(w, interferer))
        gain_look = abs(
            np.vdot(w, steering_vector(array, np.pi / 2, np.pi / 2, 2500.0))
        )
        assert gain_look == pytest.approx(1.0, abs=1e-9)
        assert gain_interferer < 0.1

    def test_rejects_bad_covariance_shape(self):
        with pytest.raises(ValueError, match="covariance"):
            MVDRBeamformer(
                array=respeaker_array(), noise_covariance=np.eye(4)
            )

    def test_rejects_non_hermitian(self):
        cov = np.eye(6, dtype=complex)
        cov[0, 1] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            MVDRBeamformer(array=respeaker_array(), noise_covariance=cov)

    def test_rejects_real_recordings(self):
        bf = MVDRBeamformer(array=respeaker_array())
        with pytest.raises(ValueError, match="analytic"):
            bf.beamform(np.zeros((6, 100)), 0.0, 1.0)

    def test_rejects_wrong_channel_count(self):
        bf = MVDRBeamformer(array=respeaker_array())
        with pytest.raises(ValueError, match="channels"):
            bf.beamform(np.zeros((4, 100), dtype=complex), 0.0, 1.0)


class TestDelayAndSum:
    def test_coherent_gain_on_look_direction(self):
        array = respeaker_array()
        wave = plane_wave(array, 1.0, 1.3)
        das = DelayAndSumBeamformer(array=array)
        on = np.mean(np.abs(das.beamform(wave, 1.0, 1.3)) ** 2)
        assert on == pytest.approx(1.0, rel=1e-6)

    def test_power_map_peaks_near_source(self):
        array = respeaker_array()
        theta0 = 1.2
        wave = plane_wave(array, theta0, np.pi / 2)
        das = DelayAndSumBeamformer(array=array)
        thetas = np.linspace(0, 2 * np.pi, 73)
        powers = das.power_map(
            wave, thetas, np.full(73, np.pi / 2)
        )
        best = thetas[int(np.argmax(powers))]
        assert abs(best - theta0) < 0.2

    def test_batch_shapes(self):
        array = respeaker_array()
        das = DelayAndSumBeamformer(array=array)
        wave = plane_wave(array, 0.4, 1.0, n=512)
        out = das.beamform_batch(wave, np.zeros(5), np.full(5, 1.0))
        assert out.shape == (5, 512)


class TestSingleMicrophone:
    def test_passes_through_selected_channel(self):
        array = respeaker_array()
        recordings = (
            np.random.default_rng(0).standard_normal((6, 128))
            + 1j * np.random.default_rng(1).standard_normal((6, 128))
        )
        single = SingleMicrophone(array=array, mic_index=3)
        out = single.beamform(recordings, 0.0, 1.0)
        assert np.allclose(out, recordings[3])

    def test_ignores_look_direction(self):
        array = respeaker_array()
        single = SingleMicrophone(array=array)
        w1 = single.weights(0.0, 0.5)
        w2 = single.weights(3.0, 2.5)
        assert np.allclose(w1, w2)

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="mic_index"):
            SingleMicrophone(array=respeaker_array(), mic_index=6)

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None)
    def test_weights_one_hot(self, index):
        single = SingleMicrophone(array=respeaker_array(), mic_index=index)
        w = single.weights_batch(np.zeros(2), np.ones(2))
        assert np.allclose(np.abs(w).sum(axis=1), 1.0)
        assert np.allclose(w[:, index], 1.0)


class TestWeightingMatrix:
    """Every beamformer's weights are ``P p / (p^H P p)`` for its ``P``."""

    @staticmethod
    def _beamformers(array, rng):
        for _ in range(3):
            raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal(
                (6, 6)
            )
            cov = raw @ raw.conj().T / 6 + 0.1 * np.eye(6)
            cov /= np.real(np.trace(cov)) / 6
            yield MVDRBeamformer(array=array, noise_covariance=cov)
        yield DelayAndSumBeamformer(array=array)
        for index in (0, 4):
            yield SingleMicrophone(array=array, mic_index=index)

    def test_weights_follow_from_weighting_matrix(self):
        array = respeaker_array()
        rng = np.random.default_rng(7)
        azimuths = rng.uniform(0.0, 2 * np.pi, 200)
        elevations = rng.uniform(0.0, np.pi, 200)
        for beamformer in self._beamformers(array, rng):
            weighting = beamformer.weighting_matrix
            np.testing.assert_allclose(
                weighting, weighting.conj().T, rtol=0.0, atol=1e-12
            )
            steering = beamformer.steering_batch(azimuths, elevations)
            projected = steering @ weighting.T  # rows P p
            derived = projected / np.einsum(
                "km,km->k", steering.conj(), projected
            )[:, None]
            if isinstance(beamformer, SingleMicrophone):
                # e_i / conj(p_i): the unit vector up to a unit-modulus
                # phase per direction, which no output power sees.
                derived *= steering[:, [beamformer.mic_index]].conj()
            np.testing.assert_allclose(
                derived,
                beamformer.weights_batch(azimuths, elevations),
                rtol=0.0,
                atol=1e-12,
            )
