"""Tests for the acoustic imager (Section V-C)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.reflectors import ReflectorCloud
from repro.array.beamforming import (
    DelayAndSumBeamformer,
    MVDRBeamformer,
    SingleMicrophone,
)
from repro.array.covariance import estimate_noise_covariance
from repro.config import ImagingConfig
from repro.core.imaging import (
    AcousticImager,
    ImagingPlane,
    _SegmentGather,
    _window_energies,
)
from repro.signal.analytic import analytic_signal


class TestImagingPlane:
    def test_grid_count(self):
        plane = ImagingPlane(distance_m=0.7, resolution=10)
        assert plane.num_grids == 100
        xs, zs = plane.grid_coordinates()
        assert xs.shape == (100,)

    def test_grid_coordinates_span_plane(self):
        plane = ImagingPlane(distance_m=0.7, side_m=1.8, resolution=18)
        xs, zs = plane.grid_coordinates()
        assert xs.min() == pytest.approx(-0.9 + 0.05)
        assert xs.max() == pytest.approx(0.9 - 0.05)
        assert zs.max() == pytest.approx(0.9 - 0.05)

    def test_rows_are_top_down(self):
        plane = ImagingPlane(distance_m=0.7, resolution=4)
        _, zs = plane.grid_coordinates()
        grid = zs.reshape(4, 4)
        assert np.all(grid[0] > grid[-1])

    def test_angles_match_paper_equations(self):
        plane = ImagingPlane(distance_m=0.7, resolution=6)
        xs, zs = plane.grid_coordinates()
        theta, phi = plane.grid_angles()
        d_p = 0.7
        expected_theta = np.arccos(xs / np.sqrt(xs**2 + d_p**2))
        expected_phi = np.arccos(
            zs / np.sqrt(xs**2 + d_p**2 + zs**2)
        )
        assert np.allclose(theta, expected_theta)
        assert np.allclose(phi, expected_phi)

    def test_center_grid_faces_forward(self):
        plane = ImagingPlane(distance_m=0.7, resolution=3)
        theta, phi = plane.grid_angles()
        center = 4  # middle of a 3x3 grid
        assert theta[center] == pytest.approx(np.pi / 2)
        assert phi[center] == pytest.approx(np.pi / 2)

    def test_ranges(self):
        plane = ImagingPlane(distance_m=1.0, resolution=3)
        ranges = plane.grid_ranges()
        assert np.all(ranges >= 1.0 - 1e-12)

    def test_from_config(self):
        config = ImagingConfig(plane_side_m=2.0, grid_resolution=10)
        plane = ImagingPlane.from_config(0.9, config)
        assert plane.side_m == 2.0
        assert plane.resolution == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ImagingPlane(distance_m=0.0)
        with pytest.raises(ValueError):
            ImagingPlane(distance_m=1.0, resolution=1)

    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.integers(min_value=2, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_ranges_bounded_by_geometry(self, distance, resolution):
        plane = ImagingPlane(distance_m=distance, resolution=resolution)
        ranges = plane.grid_ranges()
        max_range = np.sqrt(distance**2 + 2 * (plane.side_m / 2) ** 2)
        assert np.all(ranges <= max_range + 1e-9)


class TestAcousticImager:
    def _image_of_point(self, array, scene, chirp, rng, position, res=24):
        body = ReflectorCloud(
            positions=np.array([position]), reflectivities=np.array([3.0])
        )
        rec = scene.record_beep(chirp, body, rng)
        plane = ImagingPlane(
            distance_m=float(position[1]), side_m=1.8, resolution=res
        )
        imager = AcousticImager(array)
        return imager.image(rec, plane), plane

    def test_image_shape_and_nonnegativity(
        self, array, silent_scene, chirp, rng
    ):
        image, _ = self._image_of_point(
            array, silent_scene, chirp, rng, [0.0, 0.7, 0.0]
        )
        assert image.shape == (24, 24)
        assert np.all(image >= 0)

    def test_bright_spot_follows_reflector_side(
        self, array, silent_scene, chirp, rng
    ):
        left, plane = self._image_of_point(
            array, silent_scene, chirp, rng, [-0.5, 0.7, 0.0]
        )
        right, _ = self._image_of_point(
            array, silent_scene, chirp, rng, [0.5, 0.7, 0.0]
        )
        # Column of the peak should move with the reflector.
        col_left = int(np.unravel_index(np.argmax(left), left.shape)[1])
        col_right = int(np.unravel_index(np.argmax(right), right.shape)[1])
        assert col_left < plane.resolution / 2 < col_right

    def test_range_gating_dims_wrong_distance(
        self, array, silent_scene, chirp, rng
    ):
        body = ReflectorCloud(
            positions=np.array([[0.0, 0.7, 0.0]]),
            reflectivities=np.array([3.0]),
        )
        rec = silent_scene.record_beep(chirp, body, rng)
        imager = AcousticImager(array)
        right_plane = ImagingPlane(distance_m=0.7, resolution=16)
        wrong_plane = ImagingPlane(distance_m=1.6, resolution=16)
        on = imager.image(rec, right_plane)
        off = imager.image(rec, wrong_plane)
        assert on.max() > 3 * off.max()

    def test_images_batch(self, array, silent_scene, chirp, rng):
        body = ReflectorCloud(
            positions=np.array([[0.0, 0.7, 0.0]]),
            reflectivities=np.array([1.0]),
        )
        recs = silent_scene.record_beeps(chirp, [body, body], rng)
        plane = ImagingPlane(distance_m=0.7, resolution=12)
        images = AcousticImager(array).images(recs, plane)
        assert len(images) == 2

    def test_subject_images_distinguish_users(
        self, array, quiet_scene, chirp, subject, other_subject
    ):
        rng = np.random.default_rng(0)
        imager = AcousticImager(array)
        plane = ImagingPlane(distance_m=0.62, resolution=32)

        def image_of(subj, seed):
            r = np.random.default_rng(seed)
            cloud = subj.beep_clouds(0.7, 1, r)[0]
            rec = quiet_scene.record_beep(chirp, cloud, r)
            return imager.image(rec, plane)

        a1 = image_of(subject, 1)
        a2 = image_of(subject, 2)
        b1 = image_of(other_subject, 3)

        def corr(u, v):
            u = u.ravel() - u.mean()
            v = v.ravel() - v.mean()
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert corr(a1, a2) > corr(a1, b1)


class TestSteeringCache:
    """The steering-geometry cache must never change the images."""

    def _recordings(self, scene, chirp, rng, num_beeps=3):
        body = ReflectorCloud(
            positions=np.array([[0.1, 0.7, -0.2]]),
            reflectivities=np.array([2.0]),
        )
        return scene.record_beeps(chirp, [body] * num_beeps, rng)

    def test_cached_images_bit_identical(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng)
        plane = ImagingPlane(distance_m=0.7, resolution=16)
        config = ImagingConfig(grid_resolution=16, subbands=2)
        cached = AcousticImager(array, config=config).images(recs, plane)
        uncached = AcousticImager(
            array, config=config, steering_cache=False
        ).images(recs, plane)
        for a, b in zip(cached, uncached):
            np.testing.assert_array_equal(a, b)

    def test_cache_reused_across_beeps_and_reset_on_new_plane(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng)
        imager = AcousticImager(array)
        plane = ImagingPlane(distance_m=0.7, resolution=12)
        imager.images(recs, plane)
        assert imager._steering_plane == plane
        first = {k: v for k, v in imager._steering_by_band.items()}
        imager.image(recs[0], plane)
        # Same plane: the very same steering arrays are reused.
        assert all(
            imager._steering_by_band[k] is v for k, v in first.items()
        )
        other = ImagingPlane(distance_m=1.1, resolution=12)
        imager.image(recs[0], other)
        assert imager._steering_plane == other
        assert all(
            imager._steering_by_band[k] is not v for k, v in first.items()
        )

    def test_equal_plane_instances_share_cache(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng, num_beeps=1)
        imager = AcousticImager(array)
        imager.image(recs[0], ImagingPlane(distance_m=0.7, resolution=12))
        first = dict(imager._steering_by_band)
        # A distinct but equal frozen plane must not invalidate the cache.
        imager.image(recs[0], ImagingPlane(distance_m=0.7, resolution=12))
        assert all(
            imager._steering_by_band[k] is v for k, v in first.items()
        )

    def test_geometry_memo_is_per_instance_and_read_only(self):
        plane = ImagingPlane(distance_m=0.7, resolution=8)
        theta_a, _ = plane.grid_angles()
        theta_b, _ = plane.grid_angles()
        assert theta_a is theta_b
        with pytest.raises(ValueError):
            theta_a[0] = 0.0


#: Beamformer factories the imager accepts, ``(array, noise_cov) -> bf``.
BEAMFORMER_FACTORIES = {
    "mvdr": lambda arr, cov: MVDRBeamformer(
        array=arr,
        noise_covariance=cov,
        loading=ImagingConfig().diagonal_loading,
    ),
    "delay_and_sum": lambda arr, cov: DelayAndSumBeamformer(array=arr),
    "single_mic": lambda arr, cov: SingleMicrophone(array=arr, mic_index=2),
}


def _reference_image(imager, factory, recording, plane):
    """The paper's pixels (Section V-C), one grid at a time.

    For each grid: steer the beamformer at it, beamform the range-gated
    window ``[start_k, start_k + S)`` of the analytic capture, and take
    the segment's squared L2 norm; sub-band energies are averaged before
    the square root.  Band-pass filters and sub-band edges are the
    imager's own, so only the per-grid energy is under test.
    """
    fs = recording.sample_rate
    half = max(1, round(imager.config.safeguard_s * fs))
    length = 2 * half + 1
    theta, phi = plane.grid_angles()
    edges = imager._subband_edges
    energies = np.zeros((imager.config.subbands, plane.num_grids))
    for band in range(imager.config.subbands):
        analytic = analytic_signal(
            imager._bandpasses[band].apply(recording.samples)
        )
        beamformer = factory(
            imager.array,
            estimate_noise_covariance(
                analytic, noise_samples=recording.emit_index
            ),
        )
        beamformer.frequency_hz = (edges[band] + edges[band + 1]) / 2.0
        weights = beamformer.weights_batch(theta, phi)
        for k, range_m in enumerate(plane.grid_ranges()):
            delay = 2.0 * range_m / imager.speed_of_sound
            center = recording.emit_index + int(np.round(delay * fs))
            start = min(max(center - half, 0), recording.num_samples - length)
            segment = weights[k].conj() @ analytic[:, start : start + length]
            energies[band, k] = np.linalg.norm(segment) ** 2
    pixels = np.sqrt(energies.mean(axis=0))
    return pixels.reshape(plane.resolution, plane.resolution)


class TestEnergyKernel:
    """The covariance kernel against the paper-literal definition."""

    @pytest.mark.parametrize("subbands", [1, 2])
    @pytest.mark.parametrize("factory", sorted(BEAMFORMER_FACTORIES))
    def test_matches_per_grid_beamforming(
        self, array, quiet_scene, chirp, subject, factory, subbands
    ):
        rng = np.random.default_rng(11)
        cloud = subject.beep_clouds(0.7, 1, rng)[0]
        recording = quiet_scene.record_beep(chirp, cloud, rng)
        plane = ImagingPlane(distance_m=0.7, resolution=12)
        imager = AcousticImager(
            array,
            config=ImagingConfig(grid_resolution=12, subbands=subbands),
            beamformer_factory=BEAMFORMER_FACTORIES[factory],
        )
        image = imager.image(recording, plane)
        reference = _reference_image(
            imager, BEAMFORMER_FACTORIES[factory], recording, plane
        )
        assert np.max(np.abs(image - reference)) <= 1e-12 * reference.max()

    def test_energies_non_negative_in_a_null(self):
        # A rank-1 window X = u s^T and weights orthogonal to u: every
        # quadratic form w^H (X X^H) w is exactly zero, and rounding puts
        # about half of them a hair below it without the clamp.
        rng = np.random.default_rng(5)
        num_mics, num_grids, length = 6, 2000, 29
        u = rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        analytic = u[:, None] * s[None, :]
        shape = (num_grids, num_mics)
        weights = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        weights -= np.outer(weights @ u.conj() / np.vdot(u, u), u)
        gather = _SegmentGather(
            order=rng.permutation(num_grids),
            starts=np.array([3, 30]),
            groups=((0, 1000), (1000, num_grids)),
            length=length,
        )
        energies = _window_energies(
            analytic,
            weights,
            gather,
            np.empty((num_grids, num_mics), dtype=complex),
            np.empty((num_grids, num_mics), dtype=complex),
        )
        scale = np.vdot(u, u).real * np.vdot(s, s).real
        assert np.all(np.isfinite(energies))
        assert np.all(energies >= 0.0)
        assert np.all(energies <= 1e-12 * scale * num_mics)


def test_image_batch_holds_no_segment_tensor(
    array, quiet_scene, chirp, subject
):
    """Imaging a 2-beep attempt on a warm paper-size plane (180x180) never
    allocates as much as one beep's ``(K, S)`` beamformed-segment tensor."""
    rng = np.random.default_rng(3)
    recordings = quiet_scene.record_beeps(
        chirp, subject.beep_clouds(0.7, 2, rng), rng
    )
    config = ImagingConfig(grid_resolution=180)
    plane = ImagingPlane.from_config(0.7, config)
    imager = AcousticImager(array, config=config)
    imager.image_batch(recordings, plane)  # warm steering, gather, scratch
    fs = recordings[0].sample_rate
    segment_length = 2 * max(1, round(config.safeguard_s * fs)) + 1
    segment_tensor_bytes = plane.num_grids * segment_length * 16
    tracemalloc.start()
    try:
        imager.image_batch(recordings, plane)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < segment_tensor_bytes
