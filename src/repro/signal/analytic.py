"""Analytic signals and envelope detection.

The distance estimator of Section V-B extracts the envelope of the
matched-filter output (its reference [38] uses Hilbert-transform envelope
detection followed by smoothing); the beamformers operate on the complex
analytic signal so the narrow-band phase model of Eq. (7) applies.
Ranging and imaging start from the same band-passed analytic capture of
every beep, which :class:`AnalyticCaptures` computes once per attempt.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal as sp_signal

from repro.signal.filters import BandpassFilter, zero_phase_sosfilt


def analytic_signal(samples: np.ndarray) -> np.ndarray:
    """Compute the complex analytic signal via the Hilbert transform.

    Args:
        samples: Real array of shape ``(..., num_samples)``.

    Returns:
        Complex array of the same shape whose real part equals the input.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] < 2:
        raise ValueError("need at least two samples for the Hilbert transform")
    return sp_signal.hilbert(samples, axis=-1)


class AnalyticCaptures:
    """The band-passed analytic captures of one attempt, made on first use.

    Ranging (Section V-B) and imaging (Section V-C) both start from each
    beep's band-passed analytic capture.  An attempt builds one instance;
    the first stage that reads :attr:`rows` band-passes and
    Hilbert-transforms all L beeps in one stacked call (beep by beep when
    the captures differ in shape or sample rate), and later stages reuse
    the rows.  Both transforms work row by row, so a beep's row is bitwise
    the same whether it was stacked with others or processed alone.

    Args:
        recordings: The attempt's captures
            (:class:`~repro.acoustics.scene.BeepRecording`).
        bandpass: The filter the rows are band-passed with.  A stage uses
            the rows only when its own filter equals this one.

    Example::

        captures = AnalyticCaptures(recordings, BandpassFilter())
        captures.rows[k]     # beep k's (M, N) analytic capture
        captures[k : k + 1]  # beep k alone, sharing that row
    """

    def __init__(self, recordings, bandpass: BandpassFilter) -> None:
        self.recordings = tuple(recordings)
        self.bandpass = bandpass
        self._rows: list[np.ndarray] | None = None

    def __getitem__(self, beeps: slice) -> "AnalyticCaptures":
        part = AnalyticCaptures(self.recordings[beeps], self.bandpass)
        if self._rows is not None:
            part._rows = self._rows[beeps]
        return part

    @property
    def rows(self) -> list[np.ndarray]:
        """One complex ``(M, N)`` analytic capture per beep, in order."""
        if self._rows is None:
            if len(self.recordings) > 1 and _stackable(self.recordings):
                stacked = np.stack([rec.samples for rec in self.recordings])
                self._rows = list(
                    analytic_signal(self.bandpass.apply(stacked))
                )
            else:
                self._rows = [
                    analytic_signal(self.bandpass.apply(rec.samples))
                    for rec in self.recordings
                ]
        return self._rows

    def matches(self, recordings, bandpass: BandpassFilter) -> bool:
        """Whether these are ``recordings`` band-passed by ``bandpass``."""
        return (
            self.bandpass == bandpass
            and len(recordings) == len(self.recordings)
            and all(a is b for a, b in zip(recordings, self.recordings))
        )


def _stackable(recordings) -> bool:
    """Whether all captures share one shape and sample rate."""
    first = recordings[0]
    return all(
        rec.samples.shape == first.samples.shape
        and rec.sample_rate == first.sample_rate
        for rec in recordings[1:]
    )


def envelope(samples: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude envelope of a real signal.

    Args:
        samples: Real array of shape ``(..., num_samples)``.

    Returns:
        Non-negative array of the same shape.
    """
    return np.abs(analytic_signal(samples))


def smooth_envelope(
    samples: np.ndarray,
    sample_rate: float,
    cutoff_hz: float = 2_000.0,
    order: int = 2,
) -> np.ndarray:
    """Envelope detection with low-pass smoothing.

    This follows the scheme of the paper's reference [38]: rectify via the
    Hilbert magnitude, then low-pass to capture the overall trend changes of
    the correlation sequence rather than its carrier ripple.  The low-pass
    is designed once per ``(order, cutoff_hz, sample_rate)`` and applied
    zero-phase, bitwise equal to ``scipy.signal.sosfiltfilt`` with a fresh
    ``butter`` design.

    Args:
        samples: Real array of shape ``(..., num_samples)``.
        sample_rate: Sampling rate in Hz.
        cutoff_hz: Smoothing cut-off frequency in Hz.
        order: Butterworth order of the smoother.

    Returns:
        Non-negative smoothed envelope of the same shape (clipped at zero to
        remove small filter undershoot).
    """
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {sample_rate / 2}) Hz"
        )
    raw = envelope(samples)
    sos, zi = _smoother(order, cutoff_hz, sample_rate)
    smoothed = zero_phase_sosfilt(sos, zi, raw)
    return np.clip(smoothed, 0.0, None)


@functools.lru_cache(maxsize=64)
def _smoother(
    order: int, cutoff_hz: float, sample_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cached low-pass design of :func:`smooth_envelope`: ``(sos, zi)``."""
    sos = sp_signal.butter(
        order, cutoff_hz / (sample_rate / 2.0), btype="lowpass", output="sos"
    )
    return sos, sp_signal.sosfilt_zi(sos)
