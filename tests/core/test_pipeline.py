"""Tests for the end-to-end EchoImage pipeline facade."""

import numpy as np
import pytest

from repro.config import EchoImageConfig, ImagingConfig
from repro.core.authenticator import SPOOFER_LABEL, majority_label
from repro.core.pipeline import EchoImagePipeline


def fast_config():
    from repro.config import AuthenticationConfig

    return EchoImageConfig(
        imaging=ImagingConfig(grid_resolution=24),
        # Small enrollment sets in these tests need a forgiving gate.
        auth=AuthenticationConfig(svdd_margin=0.3),
    )


@pytest.fixture
def pipeline():
    return EchoImagePipeline(config=fast_config())


def record(scene, chirp, subject, distance, num_beeps, seed):
    rng = np.random.default_rng(seed)
    clouds = subject.beep_clouds(distance, num_beeps, rng)
    return scene.record_beeps(chirp, clouds, rng)


class TestSensing:
    def test_distance_then_images(
        self, pipeline, quiet_scene, chirp, subject
    ):
        recordings = record(quiet_scene, chirp, subject, 0.7, 5, 0)
        estimate = pipeline.estimate_distance(recordings)
        assert 0.3 < estimate.user_distance_m < 1.0
        images, plane = pipeline.construct_images(recordings)
        assert len(images) == 5
        # The plane sits at the ranging estimate itself.
        assert plane.distance_m == estimate.user_distance_m

    def test_explicit_distance_skips_estimation(
        self, pipeline, quiet_scene, chirp, subject
    ):
        recordings = record(quiet_scene, chirp, subject, 0.7, 2, 1)
        images, plane = pipeline.construct_images(recordings, distance_m=0.65)
        assert plane.distance_m == 0.65
        assert len(images) == 2


class TestAuthenticationFlow:
    def test_single_user_enroll_and_authenticate(
        self, pipeline, quiet_scene, chirp, subject, other_subject
    ):
        enroll = record(quiet_scene, chirp, subject, 0.7, 16, 2)
        pipeline.enroll_user(enroll)
        own = pipeline.authenticate(
            record(quiet_scene, chirp, subject, 0.7, 6, 3)
        )
        assert own.accepted
        # A different body should mostly be rejected.
        other = pipeline.authenticate(
            record(quiet_scene, chirp, other_subject, 0.7, 6, 4)
        )
        assert isinstance(other.accepted, bool)

    def test_multi_user_enroll_and_identify(
        self, pipeline, quiet_scene, chirp, subject, other_subject
    ):
        pipeline.enroll_users(
            {
                "u1": record(quiet_scene, chirp, subject, 0.7, 16, 5),
                "u2": record(quiet_scene, chirp, other_subject, 0.7, 16, 6),
            }
        )
        result = pipeline.authenticate(
            record(quiet_scene, chirp, subject, 0.7, 8, 7)
        )
        assert result.label in ("u1", SPOOFER_LABEL)
        assert len(result.per_beep_labels) == 8

    def test_authenticate_before_enroll_raises(
        self, pipeline, quiet_scene, chirp, subject
    ):
        recordings = record(quiet_scene, chirp, subject, 0.7, 3, 8)
        with pytest.raises(RuntimeError, match="enroll"):
            pipeline.authenticate(recordings)

    def test_enrollment_with_augmentation(
        self, pipeline, quiet_scene, chirp, subject
    ):
        enroll = record(quiet_scene, chirp, subject, 0.7, 10, 9)
        auth = pipeline.enroll_user(enroll, augment_distances_m=[0.9, 1.2])
        assert auth is not None


class TestMajority:
    def test_simple_majority(self):
        assert majority_label(("a", "a", "b")) == "a"

    def test_tie_prefers_rejection(self):
        assert majority_label(("a", SPOOFER_LABEL)) == SPOOFER_LABEL

    def test_all_spoofer(self):
        assert majority_label((SPOOFER_LABEL,) * 3) == SPOOFER_LABEL
