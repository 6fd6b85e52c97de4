"""Executor behaviour: backends, isolation of failures, timeouts.

The crash/hang tests inject faulty pipelines through the
``pipeline_factory`` seam and assert the two serving invariants that
matter in production: a bad request yields a *structured* failure for
that request only, and ``authenticate_batch`` always returns — never
deadlocks (every call here runs under a hard test-level timeout guard).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.obs import MetricsRegistry, set_registry
from repro.serve import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    BatchAuthenticator,
    DegradationPolicy,
)

#: Hard ceiling for any single authenticate_batch call in this module.
#: A pool that deadlocks trips this instead of hanging the suite.
GUARD_S = 60.0


def run_guarded(fn):
    """Run ``fn`` on a daemon thread; fail the test if it never returns."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(GUARD_S)
    assert not thread.is_alive(), "authenticate_batch deadlocked"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def make_requests(attempt, count):
    return [
        AuthenticationRequest(f"req-{i}", tuple(attempt))
        for i in range(count)
    ]


class _CrashOnMarker:
    """Pipeline whose authenticate crashes for single-beep requests."""

    def __init__(self, real):
        self._real = real

    def authenticate(self, recordings):
        if len(recordings) == 1:
            raise RuntimeError("injected stage crash")
        return self._real.authenticate(recordings)


class _HangOnMarker:
    """Pipeline that blocks single-beep requests until an event fires."""

    def __init__(self, real, release):
        self._real = real
        self._release = release

    def authenticate(self, recordings):
        if len(recordings) == 1:
            # Bounded wait: the test releases it in its finally block, so
            # abandoned workers drain instead of pinning the interpreter.
            self._release.wait(GUARD_S)
            raise RuntimeError("hung request released")
        return self._real.authenticate(recordings)


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_responses_in_input_order(self, enrolled, bundle, backend):
        _, attempt = enrolled
        requests = make_requests(attempt, 4)
        config = ServingConfig(backend=backend, max_workers=2)
        with BatchAuthenticator(bundle, config) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
        assert [r.request_id for r in responses] == [
            "req-0",
            "req-1",
            "req-2",
            "req-3",
        ]
        assert all(r.status == STATUS_OK for r in responses)
        assert all(r.latency_s > 0 for r in responses)

    def test_thread_backend_bitwise_matches_serial(self, enrolled, bundle):
        _, attempt = enrolled
        requests = make_requests(attempt, 2)
        results = {}
        for backend in ("serial", "thread"):
            config = ServingConfig(backend=backend, max_workers=2)
            with BatchAuthenticator(bundle, config) as server:
                results[backend] = run_guarded(
                    lambda: server.authenticate_batch(requests)
                )
        for serial, threaded in zip(results["serial"], results["thread"]):
            assert np.array_equal(
                np.asarray(serial.result.scores),
                np.asarray(threaded.result.scores),
            )

    def test_empty_batch(self, bundle):
        with BatchAuthenticator(bundle) as server:
            assert server.authenticate_batch([]) == []

    def test_process_backend_rejects_factory_injection(self, bundle):
        with pytest.raises(ValueError, match="process backend"):
            BatchAuthenticator(
                bundle,
                ServingConfig(backend="process"),
                pipeline_factory=lambda b, c, i: None,
            )


class TestFailureIsolation:
    def _crashing_factory(self, bundle_arg, config, _):
        real = bundle_arg.build_pipeline(config)
        return _CrashOnMarker(real)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_crash_touches_only_affected_request(
        self, enrolled, bundle, backend
    ):
        _, attempt = enrolled
        requests = [
            AuthenticationRequest("good-0", tuple(attempt)),
            AuthenticationRequest("bad", (attempt[0],)),  # 1 beep: crashes
            AuthenticationRequest("good-1", tuple(attempt)),
        ]
        config = ServingConfig(backend=backend, max_workers=2)
        with BatchAuthenticator(
            bundle,
            config,
            policy=DegradationPolicy(steps=()),
            pipeline_factory=self._crashing_factory,
        ) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
        by_id = {r.request_id: r for r in responses}
        assert by_id["good-0"].status == STATUS_OK
        assert by_id["good-1"].status == STATUS_OK
        assert by_id["bad"].status == STATUS_ERROR
        assert "injected stage crash" in by_id["bad"].error
        assert by_id["bad"].result is None

    def test_crash_at_every_ladder_rung_reports_last_error(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        # A 1-beep request stays 1-beep down the whole ladder, so every
        # rung re-crashes and the response must surface the final error.
        requests = [AuthenticationRequest("bad", (attempt[0],))]
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(
            bundle, config, pipeline_factory=self._crashing_factory
        ) as server:
            (response,) = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
        assert response.status == STATUS_ERROR
        assert "injected stage crash" in response.error

    def test_degradation_recovers_full_requests(self, enrolled, bundle):
        _, attempt = enrolled

        class _AlwaysCrash:
            def authenticate(self, recordings):
                raise RuntimeError("full fidelity down")

        def factory(bundle_arg, config, _):
            if config is None:
                return _AlwaysCrash()
            return bundle_arg.build_pipeline(config)

        requests = make_requests(attempt, 2)
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(
            bundle, config, pipeline_factory=factory
        ) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
        for response in responses:
            assert response.status == STATUS_DEGRADED
            assert response.degradation == "half_beeps"
            assert response.result is not None
            assert response.ok


class TestTimeouts:
    def test_hanging_request_times_out_others_complete(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        release = threading.Event()

        def hanging_factory(bundle_arg, config, _):
            real = bundle_arg.build_pipeline(config)
            return _HangOnMarker(real, release)

        requests = [
            AuthenticationRequest("good-0", tuple(attempt)),
            AuthenticationRequest("hang", (attempt[0],)),
            AuthenticationRequest("good-1", tuple(attempt)),
        ]
        config = ServingConfig(backend="thread", max_workers=3, timeout_s=2.0)
        try:
            with BatchAuthenticator(
                bundle,
                config,
                policy=DegradationPolicy(steps=()),
                pipeline_factory=hanging_factory,
            ) as server:
                responses = run_guarded(
                    lambda: server.authenticate_batch(requests)
                )
        finally:
            release.set()  # drain the abandoned worker
        by_id = {r.request_id: r for r in responses}
        assert by_id["good-0"].status == STATUS_OK
        assert by_id["good-1"].status == STATUS_OK
        assert by_id["hang"].status == STATUS_TIMEOUT
        assert "batch budget" in by_id["hang"].error

    def test_serial_backend_skips_requests_past_deadline(
        self, enrolled, bundle
    ):
        _, attempt = enrolled

        class _Slow:
            def __init__(self, real):
                self._real = real

            def authenticate(self, recordings):
                release = threading.Event()
                release.wait(0.2)
                return self._real.authenticate(recordings)

        def slow_factory(bundle_arg, config, _):
            return _Slow(
                bundle_arg.build_pipeline(config)
            )

        requests = make_requests(attempt, 3)
        config = ServingConfig(backend="serial", timeout_s=0.1)
        with BatchAuthenticator(
            bundle, config, pipeline_factory=slow_factory
        ) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
        # The first request starts inside the budget; later ones find the
        # deadline expired and come back as structured timeouts.
        assert responses[0].status == STATUS_OK
        assert [r.status for r in responses[1:]] == [STATUS_TIMEOUT] * 2


class TestTelemetry:
    def test_outcomes_and_latencies_recorded(self, enrolled, bundle):
        _, attempt = enrolled
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            requests = [
                AuthenticationRequest("good", tuple(attempt)),
                AuthenticationRequest("bad", (attempt[0],)),
            ]

            def crashing_factory(bundle_arg, config, _):
                real = bundle_arg.build_pipeline(config)
                return _CrashOnMarker(real)

            config = ServingConfig(backend="serial")
            with BatchAuthenticator(
                bundle,
                config,
                policy=DegradationPolicy(steps=()),
                pipeline_factory=crashing_factory,
            ) as server:
                run_guarded(lambda: server.authenticate_batch(requests))
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous)
        assert (
            'echoimage_serve_requests_total{outcome="ok",tenant="default"} 1'
            in rendered
        )
        assert (
            'echoimage_serve_requests_total'
            '{outcome="error",tenant="default"} 1' in rendered
        )
        assert "echoimage_serve_request_latency_seconds_count 2" in rendered

    def test_batch_emits_serve_span(self, enrolled, bundle):
        from repro.obs import Profiler

        _, attempt = enrolled
        requests = make_requests(attempt, 1)
        with Profiler() as profiler:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(lambda: server.authenticate_batch(requests))
        names = {
            span.name
            for trace_ in profiler.traces
            for span in trace_.iter_spans()
        }
        assert "serve.batch" in names
