"""Tests for the frequency-compounding imaging extension."""

import numpy as np
import pytest

from repro.acoustics.reflectors import ReflectorCloud
from repro.config import ImagingConfig
from repro.core.imaging import AcousticImager, ImagingPlane


def point_body(distance=0.7):
    return ReflectorCloud(
        positions=np.array([[0.0, distance, 0.0]]),
        reflectivities=np.array([3.0]),
    )


class TestFrequencyCompounding:
    def test_single_band_is_default(self):
        assert ImagingConfig().subbands == 1

    def test_invalid_subbands(self):
        with pytest.raises(ValueError):
            ImagingConfig(subbands=0)

    def test_compound_image_shape(self, array, silent_scene, chirp, rng):
        imager = AcousticImager(
            array, config=ImagingConfig(grid_resolution=16, subbands=3)
        )
        rec = silent_scene.record_beep(chirp, point_body(), rng)
        plane = ImagingPlane(distance_m=0.7, resolution=16)
        image = imager.image(rec, plane)
        assert image.shape == (16, 16)
        assert np.all(image >= 0)

    def test_compound_peak_colocated_with_single_band(
        self, array, silent_scene, chirp, rng
    ):
        rec = silent_scene.record_beep(chirp, point_body(), rng)
        plane = ImagingPlane(distance_m=0.7, resolution=16)
        single = AcousticImager(
            array, config=ImagingConfig(grid_resolution=16, subbands=1)
        ).image(rec, plane)
        compound = AcousticImager(
            array, config=ImagingConfig(grid_resolution=16, subbands=3)
        ).image(rec, plane)
        peak_single = np.unravel_index(np.argmax(single), single.shape)
        peak_compound = np.unravel_index(np.argmax(compound), compound.shape)
        assert abs(peak_single[0] - peak_compound[0]) <= 2
        assert abs(peak_single[1] - peak_compound[1]) <= 2

    def test_compounding_reduces_interference_variance(
        self, array, quiet_scene, chirp, subject
    ):
        # Same subject, per-beep micro-motion: compounded images should
        # vary no more (typically less) than single-band ones.
        plane = ImagingPlane(distance_m=0.62, resolution=16)
        single = AcousticImager(
            array, config=ImagingConfig(grid_resolution=16, subbands=1)
        )
        compound = AcousticImager(
            array, config=ImagingConfig(grid_resolution=16, subbands=3)
        )
        rng = np.random.default_rng(0)
        clouds = subject.beep_clouds(0.7, 6, rng)
        recs = quiet_scene.record_beeps(chirp, clouds, rng)

        def spread(imager):
            images = np.stack(
                [im / np.linalg.norm(im) for im in imager.images(recs, plane)]
            )
            return float(np.mean(np.std(images, axis=0)))

        assert spread(compound) <= spread(single) * 1.2


@pytest.mark.parametrize("subbands", [1, 2, 3, 5, 8])
def test_in_place_band_sum_equals_stacked_mean(
    array, silent_scene, chirp, rng, subbands
):
    """The compounded pixels are bitwise the root of ``np.mean`` over
    the stacked per-band energies, though no stack is built."""
    imager = AcousticImager(
        array, config=ImagingConfig(grid_resolution=8, subbands=subbands)
    )
    recordings = [
        silent_scene.record_beep(chirp, point_body(), rng) for _ in range(2)
    ]
    plane = ImagingPlane(distance_m=0.7, resolution=8)
    stacked = [
        imager._band_energies(recordings, plane, band, None)
        for band in range(subbands)
    ]
    pixels = imager._pixels(recordings, plane, None)
    assert np.array_equal(pixels, np.sqrt(np.mean(stacked, axis=0)))
