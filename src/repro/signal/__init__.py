"""Signal-processing substrate: chirps, filters, envelopes, correlation."""

from repro.signal.analytic import (
    AnalyticCaptures,
    analytic_signal,
    envelope,
    smooth_envelope,
)
from repro.signal.chirp import LFMChirp
from repro.signal.correlation import matched_filter, normalized_xcorr
from repro.signal.filters import BandpassFilter, butter_bandpass
from repro.signal.peaks import LocalMaximum, find_local_maxima

__all__ = [
    "LFMChirp",
    "BandpassFilter",
    "butter_bandpass",
    "AnalyticCaptures",
    "analytic_signal",
    "envelope",
    "smooth_envelope",
    "matched_filter",
    "normalized_xcorr",
    "LocalMaximum",
    "find_local_maxima",
]
