"""Capture substrate: digests, span hooks, the LRU store, bundles."""

import numpy as np
import pytest

from repro.obs import (
    NULL_SPAN,
    CaptureStore,
    RequestCapture,
    StageCollector,
    get_capture_store,
    set_capture_store,
    start_trace,
    trace,
)
from repro.obs.capture import _capture_filename, bundle_content_hash
from repro.obs.tracer import digest_value


class TestDigestValue:
    def test_deterministic_across_calls(self):
        array = np.arange(12.0).reshape(3, 4)
        assert digest_value(array) == digest_value(array.copy())

    def test_sensitive_to_values_dtype_and_shape(self):
        array = np.arange(12.0).reshape(3, 4)
        nudged = array.copy()
        nudged[1, 2] += 1e-12
        assert digest_value(array) != digest_value(nudged)
        assert digest_value(array) != digest_value(
            array.astype(np.float32)
        )
        assert digest_value(array) != digest_value(array.reshape(4, 3))

    def test_non_contiguous_views_digest_like_their_copy(self):
        array = np.arange(24.0).reshape(4, 6)
        view = array[:, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        assert digest_value(view) == digest_value(np.ascontiguousarray(view))

    def test_containers_and_scalars(self):
        assert digest_value([1, 2, 3]) == digest_value((1, 2, 3))
        assert digest_value([1, 2, 3]) != digest_value([1, 2])
        assert digest_value("abc") != digest_value(b"abc")
        assert len(digest_value(3.14)) == 16

    def test_nested_arrays_in_lists(self):
        a, b = np.ones(3), np.zeros(3)
        assert digest_value([a, b]) == digest_value([a.copy(), b.copy()])
        assert digest_value([a, b]) != digest_value([b, a])


class TestRecordDigest:
    def test_span_records_prefixed_attribute(self):
        with start_trace():
            with trace("authenticate") as root:
                digest = root.record_digest("features", np.ones(4))
        assert root.attributes["digest.features"] == digest
        assert root.digests() == {"features": digest}

    def test_null_span_is_a_noop(self):
        assert NULL_SPAN.record_digest("features", np.ones(4)) == ""

    def test_collector_keeps_digests_and_array_copies(self):
        with start_trace(), trace("authenticate") as root:
            collector = StageCollector(root)
            source = np.arange(4.0)
            collector.stamp("features", source)
            collector.stamp("labels", ["1", "-1"])
        source[0] = 99.0  # the collector copied, not aliased
        assert collector.arrays["features"][0] == 0.0
        assert set(collector.digests) == {"features", "labels"}
        assert "labels" not in collector.arrays  # only arrays are kept


def make_capture(request_id, **overrides):
    fields = dict(
        request_id=request_id,
        kind="authenticate",
        stage_digests={"features": "aa"},
        decision={"label": "1", "accepted": True},
    )
    fields.update(overrides)
    return RequestCapture(**fields)


class TestCaptureStoreMemory:
    def test_lru_eviction_and_recency_refresh(self):
        store = CaptureStore(max_captures=2)
        store.record(make_capture("req-0"))
        store.record(make_capture("req-1"))
        store.get("req-0")  # refresh: req-1 becomes the LRU victim
        store.record(make_capture("req-2"))
        assert store.request_ids() == ("req-0", "req-2")
        assert store.get("req-1") is None

    def test_record_stamps_captured_at(self):
        store = CaptureStore(max_captures=2)
        capture = store.record(make_capture("req-0"))
        assert capture.captured_at > 0

    def test_annotate_known_fields_and_extras(self):
        store = CaptureStore(max_captures=2)
        store.record(make_capture("req-0"))
        assert store.annotate(
            "req-0", bundle_hash="ff", backend="serial", operator="oncall"
        )
        capture = store.get("req-0")
        assert capture.bundle_hash == "ff"
        assert capture.backend == "serial"
        assert capture.annotations == {"operator": "oncall"}
        assert not store.annotate("req-ghost", backend="serial")

    def test_drain_pops_everything(self):
        store = CaptureStore(max_captures=4)
        store.record(make_capture("req-0"))
        store.record(make_capture("req-1"))
        drained = store.drain()
        assert [c.request_id for c in drained] == ["req-0", "req-1"]
        assert len(store) == 0

    def test_memory_store_stashes_no_bundles(self):
        from repro.io.storage import StorageError

        store = CaptureStore(max_captures=2)
        assert store.bundle_hashes() == ()
        with pytest.raises(StorageError):
            store.load_bundle("deadbeef")

    def test_index_document_is_newest_first(self):
        store = CaptureStore(max_captures=4)
        store.record(make_capture("req-0"))
        store.record(make_capture("req-1", kind="stream"))
        doc = store.index_document()
        assert doc["kind"] == "capture_index"
        assert doc["root"] is None
        assert doc["total_recorded"] == 2
        assert [r["request_id"] for r in doc["captures"]] == [
            "req-1", "req-0"
        ]
        assert doc["captures"][0]["capture_kind"] == "stream"


class TestCaptureStoreDisk:
    def test_persists_evicts_and_reopens(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=2)
        for i in range(3):
            store.record(make_capture(f"req-{i}"))
        files = sorted(p.name for p in root.glob("*.capture.pkl"))
        assert files == ["req-1.capture.pkl", "req-2.capture.pkl"]

        reopened = CaptureStore(root=root, max_captures=2)
        assert sorted(reopened.request_ids()) == ["req-1", "req-2"]
        capture = reopened.get("req-2")
        assert capture.decision == {"label": "1", "accepted": True}

    def test_annotations_survive_reopen(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=4)
        store.record(make_capture("req-0"))
        store.annotate("req-0", bundle_hash="ff", via="broker")
        reopened = CaptureStore(root=root, max_captures=4)
        capture = reopened.get("req-0")
        assert (capture.bundle_hash, capture.via) == ("ff", "broker")

    def test_sanitised_filenames_stay_faithful(self, tmp_path):
        weird = "a/b:c"
        filename = _capture_filename(weird)
        assert "/" not in filename and ":" not in filename
        assert filename != _capture_filename("a_b_c")  # no collision
        store = CaptureStore(root=tmp_path / "captures", max_captures=4)
        store.record(make_capture(weird))
        reopened = CaptureStore(root=tmp_path / "captures", max_captures=4)
        assert reopened.get(weird).request_id == weird

    def test_arrays_round_trip_through_disk(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=4)
        arrays = {"features": np.arange(6.0).reshape(2, 3)}
        store.record(make_capture("req-0", stage_arrays=arrays))
        reopened = CaptureStore(root=root, max_captures=4)
        np.testing.assert_array_equal(
            reopened.get("req-0").stage_arrays["features"],
            arrays["features"],
        )


class TestCaptureStoreAsync:
    def test_flush_lands_every_capture_on_disk(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=8, async_persist=True)
        for i in range(4):
            store.record(make_capture(f"req-{i}"))
        assert store.flush(timeout=10.0)
        files = sorted(p.name for p in root.glob("*.capture.pkl"))
        assert files == [f"req-{i}.capture.pkl" for i in range(4)]
        reopened = CaptureStore(root=root, max_captures=8)
        assert sorted(reopened.request_ids()) == [
            f"req-{i}" for i in range(4)
        ]

    def test_close_drains_and_falls_back_to_sync(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=8, async_persist=True)
        store.record(make_capture("req-0"))
        store.close()
        store.close()  # idempotent
        assert (root / "req-0.capture.pkl").exists()
        store.record(make_capture("req-1"))  # sync after close
        assert (root / "req-1.capture.pkl").exists()

    def test_eviction_leaves_no_stray_files(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=2, async_persist=True)
        for i in range(6):
            store.record(make_capture(f"req-{i}"))
        store.close()
        files = sorted(p.name for p in root.glob("*.capture.pkl"))
        assert files == ["req-4.capture.pkl", "req-5.capture.pkl"]

    def test_annotations_reach_disk_after_flush(self, tmp_path):
        root = tmp_path / "captures"
        store = CaptureStore(root=root, max_captures=4, async_persist=True)
        store.record(make_capture("req-0"))
        store.annotate("req-0", bundle_hash="ff", via="broker")
        assert store.flush(timeout=10.0)
        reopened = CaptureStore(root=root, max_captures=4)
        capture = reopened.get("req-0")
        assert (capture.bundle_hash, capture.via) == ("ff", "broker")

    def test_memory_store_ignores_async_flag(self):
        store = CaptureStore(max_captures=2, async_persist=True)
        assert not store.async_persist
        store.record(make_capture("req-0"))
        assert store.flush()  # trivially true: nothing to write
        store.close()


class TestBundleStash:
    def test_content_hash_is_stable_across_save_and_load(
        self, enrolled_bundle, tmp_path
    ):
        from repro.io.storage import load_model_bundle, save_model_bundle

        # Hash of the pristine bundle first: caching the digest on the
        # instance changes its pickle payload, so order matters here.
        pure = bundle_content_hash(enrolled_bundle)
        digest = enrolled_bundle.content_hash()
        assert digest == pure
        assert enrolled_bundle.content_hash() == digest  # cached
        path = tmp_path / "bundle.pkl"
        save_model_bundle(path, enrolled_bundle)
        assert load_model_bundle(path).content_hash() == digest

    def test_ensure_bundle_is_content_addressed(
        self, enrolled_bundle, tmp_path
    ):
        store = CaptureStore(root=tmp_path / "captures", max_captures=4)
        digest = store.ensure_bundle(enrolled_bundle)
        assert store.ensure_bundle(enrolled_bundle) == digest  # idempotent
        assert store.bundle_hashes() == (digest,)
        loaded = store.load_bundle(digest)
        assert loaded.content_hash() == digest

    @pytest.fixture(scope="class")
    def enrolled_bundle(self):
        from repro.eval.golden import GOLDEN_CASES, build_case
        from repro.serve import ModelBundle

        pipeline, _ = build_case(GOLDEN_CASES[0])
        return ModelBundle.from_pipeline(pipeline)


class TestProcessWideStore:
    def test_default_is_none_and_set_returns_previous(self):
        assert get_capture_store() is None
        store = CaptureStore(max_captures=2)
        try:
            assert set_capture_store(store) is None
            assert get_capture_store() is store
        finally:
            assert set_capture_store(None) is store
        assert get_capture_store() is None
