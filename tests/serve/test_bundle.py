"""Model-bundle snapshot semantics: sharing, pickling, legacy loads."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.array.steering import steering_vectors
from repro.config import EchoImageConfig, ImagingConfig
from repro.core.imaging import ImagingPlane
from repro.core.pipeline import EchoImagePipeline
from repro.obs.capture import bundle_content_hash
from repro.serve import ModelBundle


class TestFromPipeline:
    def test_unenrolled_pipeline_rejected(self):
        with pytest.raises(RuntimeError, match="un-enrolled"):
            ModelBundle.from_pipeline(EchoImagePipeline())

    def test_snapshot_shares_fitted_authenticator(self, enrolled, bundle):
        pipeline, _ = enrolled
        assert bundle.single_auth is pipeline._single_auth
        assert bundle.multi_auth is None
        assert bundle.score_baseline is not None

    def test_exactly_one_authenticator_enforced(self, bundle):
        with pytest.raises(ValueError, match="exactly one"):
            ModelBundle(
                config=bundle.config,
                array=bundle.array,
                speed_of_sound=bundle.speed_of_sound,
                feature_mode=bundle.feature_mode,
            )


class TestBuildPipeline:
    def test_worker_matches_source_pipeline_bitwise(self, enrolled, bundle):
        pipeline, attempt = enrolled
        reference = pipeline.authenticate(attempt)
        worker = bundle.build_pipeline(batched_imaging=False)
        served = worker.authenticate(attempt)
        assert served.label == reference.label
        assert np.array_equal(
            np.asarray(served.scores), np.asarray(reference.scores)
        )

    def test_cache_not_replayed_onto_different_imaging_config(self, bundle):
        coarse = EchoImageConfig(
            beep=bundle.config.beep,
            distance=bundle.config.distance,
            imaging=ImagingConfig(grid_resolution=8),
            features=bundle.config.features,
            auth=bundle.config.auth,
            monitoring=bundle.config.monitoring,
        )
        worker = bundle.build_pipeline(config=coarse)
        assert worker.imager._kernel_key is None
        assert worker.config.imaging.grid_resolution == 8

    def test_drift_baseline_restored(self, enrolled, bundle):
        pipeline, _ = enrolled
        worker = bundle.build_pipeline()
        assert (
            worker.drift.monitor("auth.score").baseline
            is bundle.score_baseline
        )


class TestPickleRoundTrip:
    def test_bundle_pickles_and_serves(self, enrolled, bundle):
        pipeline, attempt = enrolled
        clone = pickle.loads(pickle.dumps(bundle))
        reference = pipeline.authenticate(attempt)
        served = clone.build_pipeline(batched_imaging=False).authenticate(
            attempt
        )
        assert served.label == reference.label
        np.testing.assert_allclose(
            np.asarray(served.scores),
            np.asarray(reference.scores),
            rtol=0.0,
            atol=1e-10,
        )


class TestLegacyBundle:
    def test_steering_fields_load_keep_hash_and_serve(
        self, enrolled, bundle, tmp_path
    ):
        """A bundle saved with the former ``steering_plane`` /
        ``steering_by_band`` fields loads, keeps its content hash and
        serves the source pipeline's decisions bit for bit."""
        pipeline, attempt = enrolled
        legacy = copy.copy(bundle)
        vars(legacy).pop("_content_hash", None)
        plane = ImagingPlane.from_config(0.7, bundle.config.imaging)
        steering = steering_vectors(
            bundle.array, *plane.grid_angles(), bundle.config.beep.center_hz
        )
        steering.setflags(write=False)
        # The former trailing dataclass fields, in declaration order.
        object.__setattr__(legacy, "steering_plane", plane)
        object.__setattr__(legacy, "steering_by_band", {0: steering})
        digest = bundle_content_hash(legacy)
        path = tmp_path / "legacy.bundle.pkl"
        legacy.save(path)

        restored = ModelBundle.load(path)
        assert restored.content_hash() == digest
        reference = pipeline.authenticate(attempt)
        for batched in (False, True):
            served = restored.build_pipeline(
                batched_imaging=batched
            ).authenticate(attempt)
            assert served.label == reference.label
            assert np.array_equal(
                np.asarray(served.scores), np.asarray(reference.scores)
            )


class TestDiskRoundTrip:
    def test_save_load_serves_identically(
        self, enrolled, bundle, tmp_path
    ):
        pipeline, attempt = enrolled
        path = tmp_path / "model.bundle.pkl"
        assert bundle.save(path) is bundle
        restored = ModelBundle.load(path)
        reference = pipeline.authenticate(attempt)
        served = restored.build_pipeline(
            batched_imaging=False
        ).authenticate(attempt)
        assert served.label == reference.label
        np.testing.assert_allclose(
            np.asarray(served.scores),
            np.asarray(reference.scores),
            rtol=0.0,
            atol=1e-10,
        )

    def test_load_missing_file(self, tmp_path):
        from repro.io.storage import StorageError

        with pytest.raises(StorageError) as excinfo:
            ModelBundle.load(tmp_path / "nope.pkl")
        assert excinfo.value.reason == "missing"

    def test_load_rejects_foreign_payload(self, tmp_path):
        from repro.io.storage import BUNDLE_KIND, StorageError, save_pickle

        path = tmp_path / "imposter.pkl"
        save_pickle(path, BUNDLE_KIND, {"not": "a bundle"})
        with pytest.raises(StorageError) as excinfo:
            ModelBundle.load(path)
        assert excinfo.value.reason == "wrong-kind"

    def test_load_rejects_corrupted_file(self, tmp_path):
        from repro.io.storage import StorageError

        path = tmp_path / "trashed.pkl"
        path.write_bytes(b"\x80\x05 definitely truncated")
        with pytest.raises(StorageError) as excinfo:
            ModelBundle.load(path)
        assert excinfo.value.reason == "unreadable"
