"""Property-based batch-size invariance of imaging.

``AcousticImager.images`` over a whole attempt promises the same
numbers as one ``image`` call per beep for *any* stackable attempt —
not just the golden cases.  These tests sample random beep counts, grid
resolutions and sub-band splits (via ``hypothesis`` when available, a
seeded stdlib-random sweep otherwise) and hold the two to within 1e-10
of each other; in practice they are bit-identical because every beep
goes through the same per-beep energy kernel.

The latent-bug regression tests at the bottom pin down two historical
footguns: steering-cache warm-up must not change results, and an empty
batch must short-circuit to an empty list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.scene import BeepRecording
from repro.array.geometry import respeaker_array
from repro.config import BeepConfig, ImagingConfig
from repro.core.imaging import AcousticImager, ImagingPlane

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev extras
    HAVE_HYPOTHESIS = False

#: Geometry shared by every sampled case (the paper's capture shape).
SAMPLE_RATE = 48000.0
NUM_SAMPLES = 2400
EMIT_INDEX = 240


def _make_imager(resolution: int, subbands: int) -> AcousticImager:
    return AcousticImager(
        array=respeaker_array(),
        beep=BeepConfig(),
        config=ImagingConfig(
            grid_resolution=resolution, subbands=subbands
        ),
    )


def _make_recordings(num_beeps: int, seed: int) -> list[BeepRecording]:
    rng = np.random.default_rng(seed)
    num_mics = respeaker_array().num_mics
    return [
        BeepRecording(
            samples=rng.standard_normal((num_mics, NUM_SAMPLES)),
            sample_rate=SAMPLE_RATE,
            emit_index=EMIT_INDEX,
        )
        for _ in range(num_beeps)
    ]


def _assert_paths_agree(
    num_beeps: int,
    resolution: int,
    subbands: int,
    distance_m: float,
    seed: int,
) -> None:
    imager = _make_imager(resolution, subbands)
    recordings = _make_recordings(num_beeps, seed)
    plane = ImagingPlane.from_config(distance_m, imager.config)
    sequential = [imager.image(rec, plane) for rec in recordings]
    batched = imager.images(recordings, plane)
    assert len(batched) == num_beeps
    for index, (seq, bat) in enumerate(zip(sequential, batched)):
        assert seq.shape == bat.shape == (resolution, resolution)
        np.testing.assert_allclose(
            bat,
            seq,
            rtol=0.0,
            atol=1e-10,
            err_msg=(
                f"beep {index} of {num_beeps}, resolution={resolution}, "
                f"subbands={subbands}, distance={distance_m}, seed={seed}"
            ),
        )


if HAVE_HYPOTHESIS:

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        num_beeps=st.integers(min_value=2, max_value=4),
        resolution=st.integers(min_value=8, max_value=20),
        subbands=st.integers(min_value=1, max_value=3),
        distance_m=st.floats(min_value=0.5, max_value=1.8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_image_batch_matches_sequential_property(
        num_beeps, resolution, subbands, distance_m, seed
    ):
        _assert_paths_agree(
            num_beeps, resolution, subbands, distance_m, seed
        )

else:  # pragma: no cover - exercised only without the dev extras

    @pytest.mark.parametrize("sweep_seed", range(10))
    def test_image_batch_matches_sequential_property(sweep_seed):
        rng = np.random.default_rng(1000 + sweep_seed)
        _assert_paths_agree(
            num_beeps=int(rng.integers(2, 5)),
            resolution=int(rng.integers(8, 21)),
            subbands=int(rng.integers(1, 4)),
            distance_m=float(rng.uniform(0.5, 1.8)),
            seed=int(rng.integers(0, 2**32)),
        )


class TestLatentBugRegressions:
    def test_cold_vs_warm_steering_cache_bitwise(self):
        """Cache warm-up must never change pixel values."""
        imager = _make_imager(12, 2)
        recordings = _make_recordings(2, seed=99)
        plane = ImagingPlane.from_config(1.2, imager.config)
        cold = imager.images(recordings, plane)  # first call: cold cache
        warm = imager.images(recordings, plane)  # same plane: warm cache
        fresh = _make_imager(12, 2).images(recordings, plane)
        for cold_img, warm_img, fresh_img in zip(cold, warm, fresh):
            assert np.array_equal(cold_img, warm_img)
            assert np.array_equal(cold_img, fresh_img)

    def test_cold_vs_warm_batch_path_bitwise(self):
        imager = _make_imager(12, 1)
        recordings = _make_recordings(3, seed=7)
        plane = ImagingPlane.from_config(0.9, imager.config)
        cold = imager.images(recordings, plane)
        warm = imager.images(recordings, plane)
        for cold_img, warm_img in zip(cold, warm):
            assert np.array_equal(cold_img, warm_img)

    def test_empty_batch_returns_empty_list(self):
        imager = _make_imager(8, 1)
        plane = ImagingPlane.from_config(1.0, imager.config)
        assert imager.images([], plane) == []

    def test_single_recording_batch_matches_image(self):
        imager = _make_imager(10, 1)
        (recording,) = _make_recordings(1, seed=3)
        plane = ImagingPlane.from_config(1.1, imager.config)
        (batched,) = imager.images([recording], plane)
        assert np.array_equal(batched, imager.image(recording, plane))

    def test_heterogeneous_recordings_fall_back_to_sequential(self):
        imager = _make_imager(10, 1)
        rng = np.random.default_rng(5)
        num_mics = respeaker_array().num_mics
        recordings = [
            BeepRecording(
                samples=rng.standard_normal((num_mics, NUM_SAMPLES)),
                sample_rate=SAMPLE_RATE,
                emit_index=EMIT_INDEX,
            ),
            BeepRecording(  # longer capture: not stackable
                samples=rng.standard_normal((num_mics, NUM_SAMPLES + 480)),
                sample_rate=SAMPLE_RATE,
                emit_index=EMIT_INDEX,
            ),
        ]
        plane = ImagingPlane.from_config(1.0, imager.config)
        batched = imager.images(recordings, plane)
        sequential = [imager.image(rec, plane) for rec in recordings]
        for bat, seq in zip(batched, sequential):
            assert np.array_equal(bat, seq)
