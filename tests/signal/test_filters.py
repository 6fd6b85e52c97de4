"""Tests for the Butterworth band-pass filter (Section V-B)."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.signal.filters import BandpassFilter, butter_bandpass


def tone(freq_hz: float, duration_s: float = 0.1, fs: float = 48_000.0):
    t = np.arange(round(duration_s * fs)) / fs
    return np.sin(2 * np.pi * freq_hz * t)


class TestDesign:
    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            butter_bandpass(3000, 2000, 48_000)

    def test_rejects_band_above_nyquist(self):
        with pytest.raises(ValueError):
            butter_bandpass(2000, 30_000, 48_000)

    def test_sos_shape(self):
        sos = butter_bandpass(2000, 3000, 48_000, order=4)
        assert sos.ndim == 2 and sos.shape[1] == 6


class TestEquality:
    def test_equal_designs_compare_equal(self):
        assert BandpassFilter() == BandpassFilter()
        assert BandpassFilter(2000.0, 2500.0, order=3) == BandpassFilter(
            2000.0, 2500.0, order=3
        )

    @pytest.mark.parametrize(
        "other",
        [
            BandpassFilter(order=3),
            BandpassFilter(low_hz=2100.0),
            BandpassFilter(high_hz=2900.0),
            BandpassFilter(sample_rate=44_100.0),
        ],
        ids=["order", "low", "high", "sample_rate"],
    )
    def test_different_designs_compare_unequal(self, other):
        assert BandpassFilter() != other


class TestScipyReference:
    """``apply`` against ``scipy.signal.sosfiltfilt``, bit for bit."""

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize(
        "shape", [(2400,), (6, 2400), (3, 6, 2400)], ids=["1d", "MN", "LMN"]
    )
    def test_bitwise_equal_to_sosfiltfilt(self, order, shape):
        x = np.random.default_rng(order).standard_normal(shape)
        nyquist = 48_000.0 / 2.0
        sos = sp_signal.butter(
            order,
            [2000.0 / nyquist, 3000.0 / nyquist],
            btype="bandpass",
            output="sos",
        )
        reference = sp_signal.sosfiltfilt(sos, x, axis=-1)
        bp = BandpassFilter(order=order)
        out = bp.apply(x)
        assert out.shape == reference.shape
        assert np.array_equal(out, reference)
        # Repeated calls reuse the cached steady state without drift.
        assert np.array_equal(bp.apply(x), reference)

    def test_shortest_signal_matches_and_one_less_raises(self):
        bp = BandpassFilter()
        # sosfiltfilt's default padlen; a band-pass of order n has n
        # second-order sections.
        padlen = 3 * (2 * bp.order + 1)
        x = np.random.default_rng(0).standard_normal(padlen + 1)
        sos = butter_bandpass(2000, 3000, 48_000, order=bp.order)
        assert np.array_equal(bp.apply(x), sp_signal.sosfiltfilt(sos, x))
        with pytest.raises(ValueError, match="too short"):
            bp.apply(x[:padlen])


class TestApplication:
    def test_passband_preserved(self):
        bp = BandpassFilter()
        signal = tone(2500)
        out = bp.apply(signal)
        # Zero-phase 4th order: pass-band gain close to unity.
        assert np.std(out[2000:-2000]) == pytest.approx(
            np.std(signal[2000:-2000]), rel=0.05
        )

    def test_stopband_attenuated(self):
        bp = BandpassFilter()
        low = bp.apply(tone(500))
        high = bp.apply(tone(8000))
        assert np.max(np.abs(low[2000:-2000])) < 0.01
        assert np.max(np.abs(high[2000:-2000])) < 0.01

    def test_multichannel_axis(self):
        bp = BandpassFilter()
        signals = np.stack([tone(2500), tone(500)])
        out = bp.apply(signals)
        assert out.shape == signals.shape
        assert np.std(out[0]) > 10 * np.std(out[1])

    def test_zero_phase_no_delay(self):
        # An in-band impulse-like burst should stay centred after filtering.
        bp = BandpassFilter()
        n = 4800
        burst = np.zeros(n)
        t = np.arange(192) / 48_000
        burst[2304 : 2304 + 192] = np.sin(2 * np.pi * 2500 * t)
        out = bp.apply(burst)
        in_peak = 2304 + 96
        out_peak = int(np.argmax(np.abs(out)))
        assert abs(out_peak - in_peak) < 60

    def test_too_short_signal_raises(self):
        bp = BandpassFilter()
        with pytest.raises(ValueError, match="too short"):
            bp.apply(np.zeros(10))

    def test_frequency_response_peak_in_band(self):
        bp = BandpassFilter()
        freqs = np.linspace(100, 10_000, 500)
        mags = np.abs(bp.frequency_response(freqs))
        assert 2000 <= freqs[int(np.argmax(mags))] <= 3000
