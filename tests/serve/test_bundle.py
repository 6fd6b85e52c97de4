"""Model-bundle snapshot semantics: sharing, pickling, legacy loads."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.array.steering import steering_vectors
from repro.config import EchoImageConfig, ImagingConfig, ServingConfig
from repro.core.imaging import ImagingPlane
from repro.core.pipeline import EchoImagePipeline
from repro.obs import CaptureStore, set_capture_store
from repro.obs.capture import bundle_content_hash
from repro.obs.replay import VERDICT_IDENTICAL, replay_request
from repro.serve import AuthenticationRequest, BatchAuthenticator, ModelBundle


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
        worker = bundle.build_pipeline()
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
        assert bundle.score_baseline is pipeline.score_baseline
        worker = bundle.build_pipeline()
        assert worker.score_baseline is bundle.score_baseline
        with BatchAuthenticator(bundle) as server:
            assert (
                server.drift.monitor("auth.score").baseline
                is bundle.score_baseline
            )


class TestPickleRoundTrip:
    def test_bundle_pickles_and_serves(self, enrolled, bundle):
        pipeline, attempt = enrolled
        clone = pickle.loads(pickle.dumps(bundle))
        reference = pipeline.authenticate(attempt)
        served = clone.build_pipeline().authenticate(attempt)
        assert served.label == reference.label
        np.testing.assert_allclose(
            np.asarray(served.scores),
            np.asarray(reference.scores),
            rtol=0.0,
            atol=1e-10,
        )


def saved_legacy_bundle(bundle, path):
    """Save ``bundle`` as an older version pickled it; returns its hash.

    The former trailing ``steering_plane`` / ``steering_by_band`` fields
    are set, and the imaging config carries the former
    ``distance_step_m`` field in its ``__dict__``.
    """
    legacy = copy.copy(bundle)
    vars(legacy).pop("_content_hash", None)
    imaging = copy.copy(bundle.config.imaging)
    vars(imaging)["distance_step_m"] = 0.0
    object.__setattr__(
        legacy, "config", replace(bundle.config, imaging=imaging)
    )
    plane = ImagingPlane.from_config(0.7, bundle.config.imaging)
    steering = steering_vectors(
        bundle.array, *plane.grid_angles(), bundle.config.beep.center_hz
    )
    steering.setflags(write=False)
    # The former trailing dataclass fields, in declaration order.
    object.__setattr__(legacy, "steering_plane", plane)
    object.__setattr__(legacy, "steering_by_band", {0: steering})
    digest = bundle_content_hash(legacy)
    legacy.save(path)
    return digest


class TestLegacyBundle:
    def test_steering_fields_load_keep_hash_and_serve(
        self, enrolled, bundle, tmp_path
    ):
        """A bundle saved by an older version (see
        :func:`saved_legacy_bundle`) loads, keeps its content hash and
        serves the source pipeline's decisions bit for bit."""
        pipeline, attempt = enrolled
        path = tmp_path / "legacy.bundle.pkl"
        digest = saved_legacy_bundle(bundle, path)

        restored = ModelBundle.load(path)
        assert restored.content_hash() == digest
        assert vars(restored.config.imaging)["distance_step_m"] == 0.0
        reference = pipeline.authenticate(attempt)
        served = restored.build_pipeline().authenticate(attempt)
        assert served.label == reference.label
        assert np.array_equal(
            np.asarray(served.scores), np.asarray(reference.scores)
        )

    def test_capture_served_from_legacy_bundle_replays_identically(
        self, enrolled, bundle, tmp_path
    ):
        _, attempt = enrolled
        path = tmp_path / "legacy.bundle.pkl"
        digest = saved_legacy_bundle(bundle, path)
        store = CaptureStore(root=tmp_path / "captures")
        previous = set_capture_store(store)
        try:
            with BatchAuthenticator(
                ModelBundle.load(path), ServingConfig(backend="serial")
            ) as server:
                (response,) = server.authenticate_batch(
                    [AuthenticationRequest("legacy-0", tuple(attempt))]
                )
        finally:
            set_capture_store(previous)
        assert response.ok
        capture = CaptureStore(root=tmp_path / "captures").get("legacy-0")
        assert capture.bundle_hash == digest
        report = replay_request(capture, store.load_bundle(digest))
        assert report.verdict == VERDICT_IDENTICAL
        assert report.replayed_decision == report.recorded_decision


class TestDiskRoundTrip:
    def test_save_load_serves_identically(
        self, enrolled, bundle, tmp_path
    ):
        pipeline, attempt = enrolled
        path = tmp_path / "model.bundle.pkl"
        assert bundle.save(path) is bundle
        restored = ModelBundle.load(path)
        reference = pipeline.authenticate(attempt)
        served = restored.build_pipeline().authenticate(attempt)
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
