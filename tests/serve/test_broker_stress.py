"""Broker concurrency stress: overload, crash and hang injection.

The overload test floods the broker at 10x its queue capacity from
concurrent submitter threads and checks the books balance exactly:
every request id comes back exactly once, served + shed equals
submitted, and the shed count in ``broker.shed_counts`` matches the
``echoimage_broker_shed_total`` counter and the flight-recorder shed
events.  The injection tests reuse the executor suite's crash/hang
pipelines through the broker and require structured failures with no
deadlock — every blocking call runs under the ``run_guarded`` ceiling.

Dispatch latency is made deterministic-ish with a canned pipeline (a
precomputed result returned after a fixed delay), so overload pressure
comes from the test, not from imaging noise.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import BrokerConfig, ServingConfig
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    set_flight_recorder,
    set_registry,
)
from repro.serve import (
    SHED_CAPACITY,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    BatchAuthenticator,
    DegradationPolicy,
    RequestBroker,
)

from tests.serve.test_executor import (
    GUARD_S,
    _HangOnMarker,
    run_guarded,
)

#: Per-request dispatch delay of the canned pipeline.  Long enough that
#: a burst of submissions outruns the dispatcher (guaranteeing sheds in
#: the overload test), short enough to keep the suite fast.
DISPATCH_DELAY_S = 0.01


class _CannedPipeline:
    """Returns one precomputed result for every attempt, after a delay."""

    def __init__(self, result, delay_s=0.0):
        self._result = result
        self._delay_s = delay_s

    def _serve(self):
        if self._delay_s:
            threading.Event().wait(self._delay_s)
        return self._result

    def authenticate(self, recordings):
        return self._serve()

    def authenticate_streaming(self, recordings, exit_policy=None):
        return self._serve()


class _CrashingCannedPipeline(_CannedPipeline):
    """Canned pipeline that crashes single-beep (marker) requests."""

    def authenticate(self, recordings):
        if len(recordings) == 1:
            raise RuntimeError("injected stage crash")
        return self._serve()


@pytest.fixture(scope="module")
def canned_result(enrolled):
    """One real authentication result, reused as the canned answer."""
    pipeline, attempt = enrolled
    return pipeline.authenticate(attempt)


class TestOverload:
    def test_ten_x_overload_sheds_and_books_balance(
        self, enrolled, bundle, canned_result
    ):
        _, attempt = enrolled
        capacity = 4
        submitters = 4
        per_submitter = 10  # 40 requests >= 10x the queue capacity

        def canned_factory(bundle_arg, config, _):
            return _CannedPipeline(canned_result, DISPATCH_DELAY_S)

        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
        recorder = FlightRecorder()
        previous_recorder = set_flight_recorder(recorder)
        try:
            config = ServingConfig(backend="serial")
            broker_config = BrokerConfig(
                capacity=capacity,
                dispatch_batch=capacity,
                poll_interval_s=0.001,
                drain_timeout_s=GUARD_S,
            )
            with BatchAuthenticator(
                bundle,
                config,
                policy=DegradationPolicy(steps=()),
                pipeline_factory=canned_factory,
            ) as server:
                broker = RequestBroker(server, broker_config)
                futures: dict[str, object] = {}
                futures_lock = threading.Lock()

                def submitter(worker):
                    for i in range(per_submitter):
                        request = AuthenticationRequest(
                            f"w{worker}-r{i}",
                            tuple(attempt),
                            tenant=f"tenant-{worker}",
                        )
                        future = broker.submit(request)
                        with futures_lock:
                            futures[request.request_id] = future

                def flood_and_drain():
                    threads = [
                        threading.Thread(target=submitter, args=(w,))
                        for w in range(submitters)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(GUARD_S)
                        assert not thread.is_alive(), "submitter stuck"
                    return {
                        rid: future.result(GUARD_S)
                        for rid, future in futures.items()
                    }

                responses = run_guarded(flood_and_drain)
                run_guarded(broker.close)
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous_registry)
            set_flight_recorder(previous_recorder)

        total = submitters * per_submitter
        # Every submitted id resolved exactly once, and nothing else.
        assert len(responses) == total
        assert set(responses) == {
            f"w{w}-r{i}"
            for w in range(submitters)
            for i in range(per_submitter)
        }
        # Each response echoes the id its future was filed under.
        assert all(
            response.request_id == rid
            for rid, response in responses.items()
        )
        shed = [r for r in responses.values() if r.status == STATUS_SHED]
        served = [r for r in responses.values() if r.status == STATUS_OK]
        assert len(shed) + len(served) == total
        # 40 requests burst against a capacity-4 queue drained at 10ms
        # per request must overflow admission control.
        assert shed, "overload produced no sheds"
        assert all(r.shed_reason == SHED_CAPACITY for r in shed)
        assert broker.served == len(served)
        assert broker.shed_counts == {SHED_CAPACITY: len(shed)}
        assert broker.pending == 0
        # The Prometheus counter and the flight recorder agree with the
        # response-level book-keeping, id for id.  Sheds are labelled by
        # tenant, so the counters are summed across the label sets.
        def label_sum(metric: str, facet: str) -> float:
            total = 0.0
            for line in rendered.splitlines():
                if line.startswith(f"{metric}{{") and facet in line:
                    total += float(line.rsplit(" ", 1)[1])
            return total

        assert label_sum(
            "echoimage_broker_shed_total", 'reason="capacity"'
        ) == len(shed)
        assert label_sum(
            "echoimage_serve_requests_total", 'outcome="shed"'
        ) == len(shed)
        shed_events = [
            e for e in recorder.events() if e["kind"] == "shed"
        ]
        assert {e["request_id"] for e in shed_events} == {
            r.request_id for r in shed
        }


class TestCrashInjection:
    def test_worker_crashes_stay_isolated_under_load(
        self, enrolled, bundle, canned_result
    ):
        _, attempt = enrolled

        def crashing_factory(bundle_arg, config, _):
            return _CrashingCannedPipeline(canned_result)

        config = ServingConfig(backend="serial")
        with BatchAuthenticator(
            bundle,
            config,
            policy=DegradationPolicy(steps=()),
            pipeline_factory=crashing_factory,
        ) as server:
            with RequestBroker(
                server, BrokerConfig(capacity=32, dispatch_batch=8)
            ) as broker:
                requests = []
                for i in range(12):
                    if i % 3 == 2:  # every third request carries the marker
                        requests.append(
                            AuthenticationRequest(
                                f"crash-{i}", (attempt[0],)
                            )
                        )
                    else:
                        requests.append(
                            AuthenticationRequest(
                                f"good-{i}", tuple(attempt)
                            )
                        )
                futures = [broker.submit(r) for r in requests]
                responses = run_guarded(
                    lambda: [f.result(GUARD_S) for f in futures]
                )
                # The dispatcher survived every crash: the broker still
                # admits and serves new work afterwards.
                assert broker.alive
                follow_up = run_guarded(
                    lambda: broker.authenticate(
                        AuthenticationRequest(
                            "after-crashes", tuple(attempt)
                        ),
                        timeout=GUARD_S,
                    )
                )
        by_id = {r.request_id: r for r in responses}
        for request in requests:
            response = by_id[request.request_id]
            if request.request_id.startswith("crash-"):
                assert response.status == STATUS_ERROR
                assert "injected stage crash" in response.error
                assert response.result is None
            else:
                assert response.status == STATUS_OK
                assert response.result is not None
        assert follow_up.status == STATUS_OK
        assert broker.pending == 0


class TestHangInjection:
    def test_hung_worker_times_out_without_deadlocking_broker(
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
                with RequestBroker(
                    server, BrokerConfig(capacity=8, dispatch_batch=8)
                ) as broker:
                    futures = [broker.submit(r) for r in requests]
                    responses = run_guarded(
                        lambda: [f.result(GUARD_S) for f in futures]
                    )
        finally:
            release.set()  # drain the abandoned worker
        by_id = {r.request_id: r for r in responses}
        assert by_id["good-0"].status == STATUS_OK
        assert by_id["good-1"].status == STATUS_OK
        assert by_id["hang"].status == STATUS_TIMEOUT
        assert "batch budget" in by_id["hang"].error
        assert broker.pending == 0
