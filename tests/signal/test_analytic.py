"""Tests for analytic signals and envelope detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import signal as sp_signal
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.signal.analytic import analytic_signal, envelope, smooth_envelope


class TestAnalyticSignal:
    def test_real_part_is_input(self):
        x = np.random.default_rng(0).standard_normal(256)
        assert np.allclose(np.real(analytic_signal(x)), x)

    def test_tone_envelope_constant(self):
        t = np.arange(4800) / 48_000
        x = 3.0 * np.sin(2 * np.pi * 2500 * t)
        env = envelope(x)
        # Ignore edge transients of the Hilbert transform.
        assert np.allclose(env[200:-200], 3.0, atol=0.05)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            analytic_signal(np.array([1.0]))

    def test_multichannel(self):
        x = np.random.default_rng(1).standard_normal((3, 128))
        out = analytic_signal(x)
        assert out.shape == (3, 128)
        assert np.allclose(np.real(out), x)

    @given(
        arrays(
            float,
            st.integers(min_value=8, max_value=200),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_envelope_bounds_signal(self, x):
        env = envelope(x)
        assert np.all(env >= np.abs(x) - 1e-6 * (1 + np.abs(x).max()))


class TestSmoothEnvelope:
    def test_non_negative(self):
        x = np.random.default_rng(2).standard_normal(2048)
        env = smooth_envelope(x, sample_rate=48_000, cutoff_hz=2000)
        assert np.all(env >= 0)

    def test_tracks_amplitude_modulation(self):
        t = np.arange(48_000) / 48_000
        am = 1.0 + 0.5 * np.sin(2 * np.pi * 5 * t)
        x = am * np.sin(2 * np.pi * 2500 * t)
        env = smooth_envelope(x, 48_000, cutoff_hz=100)
        mid = slice(4800, -4800)
        corr = np.corrcoef(env[mid], am[mid])[0, 1]
        assert corr > 0.99

    @pytest.mark.parametrize(
        "order, cutoff_hz, shape",
        [(2, 2000.0, (2048,)), (2, 500.0, (3, 2048)), (4, 1200.0, (2, 3, 512))],
    )
    def test_bitwise_equal_to_butter_sosfiltfilt(self, order, cutoff_hz, shape):
        x = np.random.default_rng(order).standard_normal(shape)
        sos = sp_signal.butter(
            order, cutoff_hz / 24_000.0, btype="lowpass", output="sos"
        )
        raw = np.abs(sp_signal.hilbert(x, axis=-1))
        reference = np.clip(sp_signal.sosfiltfilt(sos, raw, axis=-1), 0, None)
        for _ in range(2):  # the second call takes the cached design
            out = smooth_envelope(x, 48_000, cutoff_hz=cutoff_hz, order=order)
            assert np.array_equal(out, reference)

    def test_invalid_cutoff_raises(self):
        with pytest.raises(ValueError):
            smooth_envelope(np.zeros(100), 48_000, cutoff_hz=0)
        with pytest.raises(ValueError):
            smooth_envelope(np.zeros(100), 48_000, cutoff_hz=30_000)
