"""Cross-worker telemetry propagation and the serving flight recorder.

The process backend runs pipelines in worker processes whose metric
increments and traces would otherwise vanish with the worker.  These
tests pin the propagation contract: after a batch, the parent registry
holds the *same totals* no matter which backend served it, worker traces
replay through the parent's sinks, and failed batches leave a black-box
flight dump behind.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Profiler,
    set_registry,
)
from repro.serve import (
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    BatchAuthenticator,
    DegradationPolicy,
)

from .test_executor import make_requests, run_guarded

#: Counter families whose totals must be backend-independent.  Includes
#: both serve-level counters (recorded in the parent) and pipeline-level
#: ones (recorded inside workers and shipped back as deltas).
COMPARED_COUNTERS = (
    "echoimage_serve_requests_total",
    "echoimage_auth_attempts_total",
    "echoimage_auth_decisions_total",
    "echoimage_distance_estimates_total",
)

#: Pipeline histograms with deterministic observations (no wall time).
COMPARED_HISTOGRAMS = (
    "echoimage_auth_score",
    "echoimage_distance_echo_snr_db",
    "echoimage_feature_embedding_norm",
)


def run_batch(bundle, backend, requests):
    """Serve ``requests`` on ``backend`` under a fresh registry.

    Returns (responses, registry with the run's totals merged in).
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        config = ServingConfig(backend=backend, max_workers=2)
        with BatchAuthenticator(bundle, config) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
    finally:
        set_registry(previous)
    return responses, registry


def counter_totals(registry, names):
    """{(family, label_items) -> value} for the given counter families."""
    totals = {}
    for name in names:
        family = registry.get(name)
        if family is None:
            continue
        for labels, metric in family.samples():
            totals[(name, tuple(sorted(labels.items())))] = metric.value
    return totals


class TestBackendTotalsMatch:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counters_and_decisions_match_serial(
        self, enrolled, bundle, backend
    ):
        _, attempt = enrolled
        requests = make_requests(attempt, 3)
        serial_responses, serial_registry = run_batch(
            bundle, "serial", requests
        )
        other_responses, other_registry = run_batch(
            bundle, backend, requests
        )

        # Decisions are bitwise identical across backends.
        assert all(r.status == STATUS_OK for r in serial_responses)
        for ours, theirs in zip(serial_responses, other_responses):
            assert ours.request_id == theirs.request_id
            assert ours.status == theirs.status
            assert ours.result.label == theirs.result.label
            assert np.array_equal(
                np.asarray(ours.result.scores),
                np.asarray(theirs.result.scores),
            )

        # Counter totals merged into the parent registry match exactly.
        serial_totals = counter_totals(serial_registry, COMPARED_COUNTERS)
        other_totals = counter_totals(other_registry, COMPARED_COUNTERS)
        assert serial_totals, "serial run recorded no counters"
        assert serial_totals == other_totals
        assert (
            serial_totals[
                (
                    "echoimage_serve_requests_total",
                    (("outcome", "ok"), ("tenant", "default")),
                )
            ]
            == 3.0
        )

        # Deterministic pipeline histograms agree sample-for-sample
        # (sums up to float addition order across worker partials).
        for name in COMPARED_HISTOGRAMS:
            serial_family = serial_registry.get(name)
            other_family = other_registry.get(name)
            assert serial_family is not None and other_family is not None
            serial_samples = {
                tuple(sorted(labels.items())): metric
                for labels, metric in serial_family.samples()
            }
            other_samples = {
                tuple(sorted(labels.items())): metric
                for labels, metric in other_family.samples()
            }
            assert serial_samples.keys() == other_samples.keys()
            for labels, metric in serial_samples.items():
                twin = other_samples[labels]
                assert metric.count == twin.count, name
                assert metric.bucket_counts() == twin.bucket_counts(), name
                assert metric.sum == pytest.approx(twin.sum), name

    def test_piggyback_fields_are_stripped_before_callers(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        responses, _ = run_batch(
            bundle, "process", make_requests(attempt, 2)
        )
        for response in responses:
            assert response.telemetry is None

    def test_worker_traces_replay_through_parent_sinks(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        requests = make_requests(attempt, 2)
        with Profiler() as profiler:
            config = ServingConfig(backend="process", max_workers=2)
            with BatchAuthenticator(bundle, config) as server:
                run_guarded(lambda: server.authenticate_batch(requests))
        authenticate_spans = [
            span
            for trace_ in profiler.traces
            for span in trace_.iter_spans()
            if span.name == "authenticate"
        ]
        # One worker-side authenticate trace per request, visible in the
        # parent exactly as the serial backend's would be.
        assert len(authenticate_spans) == len(requests)


class TestFlightRecording:
    def test_successful_batch_lands_in_recorder(self, enrolled, bundle):
        _, attempt = enrolled
        recorder = FlightRecorder()
        with BatchAuthenticator(
            bundle, ServingConfig(backend="serial"), recorder=recorder
        ) as server:
            run_guarded(
                lambda: server.authenticate_batch(make_requests(attempt, 2))
            )
        records = recorder.requests()
        assert [r["request_id"] for r in records] == ["req-0", "req-1"]
        assert all(r["status"] == STATUS_OK for r in records)
        assert all(r["trace"] is not None for r in records)
        assert all(r["latency_s"] > 0 for r in records)

    def test_forced_timeout_writes_black_box_with_trace(
        self, enrolled, bundle, tmp_path
    ):
        from .test_executor import _HangOnMarker

        _, attempt = enrolled
        release = threading.Event()

        def hanging_factory(bundle_arg, config, _):
            real = bundle_arg.build_pipeline(config)
            return _HangOnMarker(real, release)

        dump_path = tmp_path / "blackbox.json"
        recorder = FlightRecorder(auto_dump_path=str(dump_path))
        requests = [
            AuthenticationRequest("good", tuple(attempt)),
            AuthenticationRequest("hang", (attempt[0],)),
        ]
        config = ServingConfig(backend="thread", max_workers=2, timeout_s=2.0)
        try:
            with BatchAuthenticator(
                bundle,
                config,
                policy=DegradationPolicy(steps=()),
                pipeline_factory=hanging_factory,
                recorder=recorder,
            ) as server:
                responses = run_guarded(
                    lambda: server.authenticate_batch(requests)
                )
        finally:
            release.set()

        by_id = {r.request_id: r for r in responses}
        assert by_id["hang"].status == STATUS_TIMEOUT

        assert dump_path.exists(), "timeout must auto-dump the black box"
        doc = json.loads(dump_path.read_text())
        assert doc["kind"] == "flight_recorder"
        records = {r["request_id"]: r for r in doc["requests"]}
        assert records["hang"]["status"] == STATUS_TIMEOUT
        # The offending request carries the batch's span tree — the work
        # was abandoned in the worker, so the enclosing trace is the
        # evidence trail.
        assert records["hang"]["trace"] is not None
        assert records["hang"]["trace"]["spans"]
        kinds = [e["kind"] for e in doc["events"]]
        assert "timeout" in kinds
        assert kinds[-1] == "dump"
        (timeout_event,) = [
            e for e in doc["events"] if e["kind"] == "timeout"
        ]
        assert timeout_event["request_id"] == "hang"

    def test_degradation_records_event(self, enrolled, bundle):
        _, attempt = enrolled

        class _AlwaysCrash:
            def authenticate(self, recordings):
                raise RuntimeError("full fidelity down")

        def factory(bundle_arg, config, _):
            if config is None:
                return _AlwaysCrash()
            return bundle_arg.build_pipeline(config)

        recorder = FlightRecorder()
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(
            bundle, config, pipeline_factory=factory, recorder=recorder
        ) as server:
            run_guarded(
                lambda: server.authenticate_batch(make_requests(attempt, 1))
            )
        (record,) = recorder.requests()
        assert record["status"] == "degraded"
        assert record["degradation"] == "half_beeps"
        events = [e for e in recorder.events() if e["kind"] == "degradation"]
        assert events and events[0]["step"] == "half_beeps"

    def test_close_flips_alive(self, bundle):
        server = BatchAuthenticator(bundle, ServingConfig(backend="serial"))
        assert server.alive
        server.close()
        assert not server.alive
