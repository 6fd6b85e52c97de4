"""Capture → replay determinism across the serving layer.

The tentpole guarantee: a captured request replays bit-identically
(verdict ``identical``, byte-equal decision documents) on every
backend, a perturbed config diverges loudly at the first affected
stage, and a changed environment is blamed on the environment rather
than on nondeterminism.
"""

import dataclasses
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.config import ExitPolicy, ServingConfig
from repro.obs import CaptureStore, set_capture_store
from repro.obs.replay import (
    VERDICT_DIVERGENT,
    VERDICT_ENVIRONMENT,
    VERDICT_IDENTICAL,
    replay_identify,
    replay_request,
)
from repro.serve import AuthenticationRequest, BatchAuthenticator
from tests.obs.test_capture import fill_disk_under
from tests.serve.test_executor import GUARD_S

BACKENDS = ("serial", "thread", "process")


@pytest.fixture()
def capture_store(tmp_path):
    """A disk-backed store installed process-wide for the test."""
    store = CaptureStore(root=tmp_path / "captures", max_captures=32)
    previous = set_capture_store(store)
    yield store
    set_capture_store(previous)


def serve_one(bundle, recordings, backend, capture_store, request_id):
    auth = BatchAuthenticator(bundle, ServingConfig(backend=backend))
    try:
        response = auth.authenticate_batch(
            [AuthenticationRequest(request_id, tuple(recordings))]
        )[0]
    finally:
        auth.close()
    assert response.ok
    capture = capture_store.get(request_id)
    assert capture is not None, f"{backend} backend recorded no capture"
    return response, capture


class TestReplayDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_capture_replays_identically(
        self, enrolled, bundle, capture_store, backend
    ):
        _, recordings = enrolled
        request_id = f"req-replay-{backend}"
        response, capture = serve_one(
            bundle, recordings, backend, capture_store, request_id
        )
        assert capture.backend == backend
        assert capture.bundle_hash == bundle.content_hash()
        assert capture.stage_digests  # hooks actually stamped stages

        replayed_bundle = capture_store.load_bundle(capture.bundle_hash)
        report = replay_request(capture, replayed_bundle)
        assert report.verdict == VERDICT_IDENTICAL
        assert report.stage is None
        assert report.decision_match
        # Byte-equal decisions: the replayed document is exactly the
        # recorded one, scores included.
        assert report.replayed_decision == report.recorded_decision
        assert report.recorded_decision["scores"] == [
            float(s) for s in response.result.scores
        ]

    def test_streaming_capture_replays_identically(
        self, enrolled, bundle, capture_store
    ):
        pipeline, recordings = enrolled
        policy = ExitPolicy(min_beeps=1, score_threshold=1e9)
        result = pipeline.authenticate_streaming(list(recordings), policy)
        capture = capture_store.get(result.request_id)
        assert capture.kind == "stream"
        assert capture.exit_policy == policy

        report = replay_request(capture, bundle)
        assert report.verdict == VERDICT_IDENTICAL
        assert report.replayed_decision == report.recorded_decision
        assert report.recorded_decision["beeps_used"] == result.beeps_used

    def test_perturbed_config_diverges_at_first_stage(
        self, enrolled, bundle, capture_store
    ):
        pipeline, recordings = enrolled
        result = pipeline.authenticate(list(recordings))
        capture = capture_store.get(result.request_id)

        config = capture.config
        perturbed = dataclasses.replace(
            config,
            imaging=dataclasses.replace(
                config.imaging,
                diagonal_loading=config.imaging.diagonal_loading * 2,
            ),
        )
        report = replay_request(capture, bundle, config=perturbed)
        assert report.verdict == VERDICT_DIVERGENT
        # Distance estimation is upstream of imaging and must still
        # match; imaging is the first stage the knob touches.
        assert report.stage == "images"
        by_stage = {c.stage: c for c in report.stages}
        assert by_stage["distance"].match
        assert not by_stage["images"].match
        assert report.max_abs_err > 0
        assert report.first_offender_index is not None

    def test_changed_environment_blames_the_environment(
        self, enrolled, bundle, capture_store
    ):
        pipeline, recordings = enrolled
        result = pipeline.authenticate(list(recordings))
        capture = capture_store.get(result.request_id)
        capture.environment = dict(
            capture.environment, numpy="0.0.1", python="2.7.18"
        )

        config = capture.config
        perturbed = dataclasses.replace(
            config,
            imaging=dataclasses.replace(
                config.imaging,
                diagonal_loading=config.imaging.diagonal_loading * 2,
            ),
        )
        report = replay_request(capture, bundle, config=perturbed)
        assert report.verdict == VERDICT_ENVIRONMENT
        assert sorted(report.environment_mismatches) == ["numpy", "python"]
        # A clean replay stays identical even under a changed
        # environment: reproduction is evidence.
        clean = replay_request(capture, bundle)
        assert clean.verdict == VERDICT_IDENTICAL
        assert clean.environment_mismatches  # still reported

    def test_replay_rejects_identify_captures(self, capture_store):
        from repro.obs import RequestCapture

        capture = RequestCapture(request_id="req-id", kind="identify")
        with pytest.raises(ValueError, match="replay_identify"):
            replay_request(capture, bundle=None)


class TestLegacyCapture:
    def test_capture_with_imaging_flag_reopens_and_replays(
        self, enrolled, bundle, tmp_path
    ):
        """Captures written while the pipeline had a ``batched_imaging``
        flag unpickle with it in their ``__dict__``; a reopened store
        serves them, replay ignores the field and the summary omits it."""
        pipeline, recordings = enrolled
        root = tmp_path / "legacy"
        store = CaptureStore(root=root)
        previous = set_capture_store(store)
        try:
            result = pipeline.authenticate(list(recordings))
        finally:
            set_capture_store(previous)
        legacy = store.get(result.request_id)
        vars(legacy)["batched_imaging"] = True
        store.record(legacy)  # rewrite the envelope with the old field

        capture = CaptureStore(root=root).get(result.request_id)
        assert vars(capture)["batched_imaging"] is True
        report = replay_request(capture, bundle)
        assert report.verdict == VERDICT_IDENTICAL
        assert report.replayed_decision == report.recorded_decision
        assert "batched_imaging" not in capture.summary_document()


class TestIdentifyReplay:
    @pytest.fixture()
    def populated(self, tmp_path):
        from repro.io.store import EnrollmentStore

        rng = np.random.default_rng(7)
        centers = rng.normal(0.0, 10.0, (6, 6))
        store = EnrollmentStore.open(
            tmp_path / "enrollment", num_shards=4, candidate_k=3
        )
        store.enroll_batch(
            {
                f"user-{i:02d}": centers[i]
                + rng.normal(0.0, 0.5, (8, 6))
                for i in range(6)
            }
        )
        probe = centers[2] + rng.normal(0.0, 0.25, (4, 6))
        return store, probe

    def test_identify_capture_replays_identically(
        self, populated, capture_store
    ):
        store, probe = populated
        result = store.identify(probe, k=3)
        capture = capture_store.get(result.request_id)
        assert capture is not None
        assert capture.kind == "identify"
        assert capture.identify_k == 3
        np.testing.assert_array_equal(capture.features, probe)

        report = replay_identify(capture, store)
        assert report.verdict == VERDICT_IDENTICAL
        assert report.replayed_decision == report.recorded_decision
        assert report.recorded_decision["label"] == result.label

    def test_identify_replay_rejects_auth_captures(self, capture_store):
        from repro.obs import RequestCapture

        capture = RequestCapture(request_id="req-a", kind="authenticate")
        with pytest.raises(ValueError, match="identify"):
            replay_identify(capture, enrollment_store=None)


class TestBrokerAnnotation:
    def test_brokered_requests_annotated_via_broker(
        self, enrolled, bundle, capture_store, monkeypatch
    ):
        from repro.config import BrokerConfig
        from repro.io import storage
        from repro.serve import RequestBroker

        writes: list[str] = []
        write_bytes_atomic = storage.write_bytes_atomic

        def counting_write(path, data):
            writes.append(str(path))
            return write_bytes_atomic(path, data)

        monkeypatch.setattr(storage, "write_bytes_atomic", counting_write)
        _, recordings = enrolled
        auth = BatchAuthenticator(bundle, ServingConfig(backend="serial"))
        broker = RequestBroker(
            auth, BrokerConfig(capacity=4, dispatch_batch=4)
        )
        try:
            future = broker.submit(
                AuthenticationRequest("req-brokered", tuple(recordings))
            )
            broker.drain()
            assert future.result(timeout=60.0).ok
        finally:
            broker.close()
            auth.close()
        capture = capture_store.get("req-brokered")
        assert capture.via == "broker"
        # Recorded once, with its whole serving context, by the fan-out.
        capture_writes = [p for p in writes if p.endswith(".capture.pkl")]
        assert len(capture_writes) == 1
        # Brokered captures replay like any other.
        report = replay_request(
            capture, capture_store.load_bundle(capture.bundle_hash)
        )
        assert report.verdict == VERDICT_IDENTICAL


def count_capture_writes(monkeypatch) -> list:
    """Filenames of every capture envelope written from now on."""
    from repro.io import storage

    writes: list[str] = []
    write_bytes_atomic = storage.write_bytes_atomic

    def counting_write(path, data):
        if str(path).endswith(".capture.pkl"):
            writes.append(Path(path).name)
        return write_bytes_atomic(path, data)

    monkeypatch.setattr(storage, "write_bytes_atomic", counting_write)
    return writes


class TestOneWritePerServedCapture:
    @pytest.mark.parametrize("async_persist", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_served_capture_is_written_once(
        self, enrolled, bundle, tmp_path, monkeypatch, backend,
        async_persist,
    ):
        _, recordings = enrolled
        writes = count_capture_writes(monkeypatch)
        store = CaptureStore(
            root=tmp_path / "captures", async_persist=async_persist
        )
        ids = [f"req-once-{i}" for i in range(3)]
        previous = set_capture_store(store)
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend=backend, max_workers=2)
            ) as auth:
                responses = auth.authenticate_batch(
                    [AuthenticationRequest(rid, tuple(recordings))
                     for rid in ids]
                )
        finally:
            set_capture_store(previous)
            store.close()
        assert all(r.ok for r in responses)
        # Responses leave the authenticator without their capture.
        assert all(r.capture is None for r in responses)
        assert sorted(writes) == sorted(f"{rid}.capture.pkl" for rid in ids)
        for rid in ids:
            capture = store.get(rid)
            assert capture.backend == backend
            assert capture.bundle_hash == bundle.content_hash()
            assert capture.captured_at > 0

    def test_forked_worker_never_writes_its_inherited_store(
        self, enrolled, bundle, tmp_path
    ):
        """A process pool forked while a store was installed keeps
        serving after the store is removed; its workers' copies of the
        store must stay unused."""
        _, recordings = enrolled
        store = CaptureStore(root=tmp_path / "captures")
        with BatchAuthenticator(
            bundle, ServingConfig(backend="process", max_workers=1)
        ) as auth:
            previous = set_capture_store(store)
            try:
                (first,) = auth.authenticate_batch(
                    [AuthenticationRequest("req-fork-0", tuple(recordings))]
                )
            finally:
                set_capture_store(previous)
            (second,) = auth.authenticate_batch(
                [AuthenticationRequest("req-fork-1", tuple(recordings))]
            )
        assert first.ok and second.ok
        reopened = CaptureStore(root=tmp_path / "captures")
        assert reopened.request_ids() == ("req-fork-0",)


class _HeldPipeline:
    """Pipeline whose attempts wait for ``release``, then set ``done``."""

    def __init__(self, real, release, done):
        self._real = real
        self._release = release
        self._done = done

    def authenticate(self, recordings):
        self._release.wait(GUARD_S)
        try:
            return self._real.authenticate(recordings)
        finally:
            self._done.set()


class TestAbandonedRequests:
    def test_timed_out_thread_request_leaves_no_capture(
        self, enrolled, bundle, capture_store
    ):
        """The ledger says ``timeout``; once the abandoned worker
        finishes, the capture store must not say otherwise."""
        _, recordings = enrolled
        release, done = threading.Event(), threading.Event()

        def held_factory(bundle_arg, config, _):
            return _HeldPipeline(
                bundle_arg.build_pipeline(config), release, done
            )

        requests = [
            AuthenticationRequest(f"req-held-{i}", tuple(recordings))
            for i in range(2)
        ]
        try:
            with BatchAuthenticator(
                bundle,
                ServingConfig(backend="thread", max_workers=1, timeout_s=0.3),
                pipeline_factory=held_factory,
            ) as auth:
                responses = auth.authenticate_batch(requests)
        finally:
            release.set()
        assert [r.status for r in responses] == ["timeout", "timeout"]
        assert done.wait(GUARD_S)  # the started request ran to its end
        assert len(capture_store) == 0


class TestFullDisk:
    def test_brokered_requests_survive_a_full_capture_disk(
        self, enrolled, bundle, tmp_path, monkeypatch
    ):
        """ENOSPC under the capture directory costs the captures' files,
        not the decisions: every request is answered and audited ``ok``
        and the store reports the failed writes."""
        from repro.config import BrokerConfig
        from repro.obs import (
            AuditLedger,
            MetricsRegistry,
            set_audit_ledger,
            set_registry,
        )
        from repro.serve import RequestBroker

        _, recordings = enrolled
        root = tmp_path / "captures"
        fill_disk_under(root, monkeypatch)
        store = CaptureStore(root=root, async_persist=True)
        ledger = AuditLedger(tmp_path / "audit.jsonl")
        registry = MetricsRegistry()
        previous = (
            set_capture_store(store),
            set_audit_ledger(ledger),
            set_registry(registry),
        )
        ids = [f"req-full-{i}" for i in range(4)]
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as auth, RequestBroker(
                auth, BrokerConfig(capacity=8, dispatch_batch=4)
            ) as broker:
                futures = [
                    broker.submit(
                        AuthenticationRequest(rid, tuple(recordings))
                    )
                    for rid in ids
                ]
                responses = [f.result(timeout=GUARD_S) for f in futures]
            store.flush(timeout=10.0)
        finally:
            set_capture_store(previous[0])
            set_audit_ledger(previous[1])
            set_registry(previous[2])
            store.close()
        assert [r.status for r in responses] == ["ok"] * 4
        assert [e["status"] for e in ledger.entries()] == ["ok"] * 4
        served = registry.get("echoimage_serve_requests_total")
        outcomes = {
            labels["outcome"]: child.value
            for labels, child in served.samples()
        }
        assert outcomes == {"ok": 4}
        doc = store.index_document()
        # Four envelopes and at least one bundle stash failed.
        assert doc["write_errors"] >= 5
        assert "No space left on device" in doc["last_write_error"]
        for rid in ids:
            assert store.get(rid).via == "broker"
        assert not list(root.rglob("*.pkl"))
