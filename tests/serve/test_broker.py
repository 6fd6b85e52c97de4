"""RequestBroker behaviour: admission control, fairness, lifecycle.

The deterministic tests drive the broker against a scripted
authenticator whose dispatch can be held on an event — that pins the
dispatcher mid-batch so queue depth, shed decisions and the tenant
rotation can be asserted exactly instead of racing the drain.  A final
end-to-end class runs the broker over a real ``BatchAuthenticator``.
"""

from __future__ import annotations

import threading
import time
from time import monotonic

import numpy as np
import pytest

from repro.acoustics.scene import BeepRecording
from repro.config import BrokerConfig, ExitPolicy, ServingConfig
from repro.obs import (
    AuditLedger,
    FlightRecorder,
    MetricsRegistry,
    set_audit_ledger,
    set_flight_recorder,
    set_registry,
)
from repro.serve import (
    SHED_CAPACITY,
    SHED_SLO_BURN,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    AuthenticationRequest,
    AuthenticationResponse,
    BatchAuthenticator,
    RequestBroker,
)

from tests.serve.test_executor import GUARD_S, run_guarded

#: The scripted authenticator never inspects recordings; any
#: non-empty tuple satisfies request validation.
DUMMY_BEEPS = ("beep",)


def wait_until(predicate, timeout=GUARD_S):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = monotonic() + timeout
    while monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class ScriptedAuthenticator:
    """Stands in for ``BatchAuthenticator``: canned OK responses, an
    optional gate that holds the dispatcher mid-batch, and a record of
    every dispatched batch (in dispatch order)."""

    def __init__(self, gate: threading.Event | None = None):
        self.alive = True
        self.gate = gate
        self.batches: list[list[str]] = []
        self.streaming_batches = 0

    def _respond(self, requests):
        if self.gate is not None:
            assert self.gate.wait(GUARD_S), "test gate never released"
        self.batches.append([r.request_id for r in requests])
        return [
            AuthenticationResponse(request_id=r.request_id, status=STATUS_OK)
            for r in requests
        ]

    def authenticate_batch(self, requests, via=None):
        return self._respond(requests)

    def authenticate_streaming(self, requests, exit_policy=None, via=None):
        self.streaming_batches += 1
        return self._respond(requests)


class FailingAuthenticator(ScriptedAuthenticator):
    """Raises wholesale out of dispatch — the broker must absorb it."""

    def authenticate_batch(self, requests, via=None):
        raise RuntimeError("authenticator exploded")


class PluggedAuthenticator(ScriptedAuthenticator):
    """Answers the ``plug`` request with a canned response held on the
    gate (see :func:`plug_dispatcher`) and serves every other batch
    through a real authenticator, so the requests queued behind the
    plug reach it as one batch."""

    def __init__(self, server, gate):
        super().__init__(gate)
        self.server = server

    def authenticate_batch(self, requests, via=None):
        if requests[0].request_id == "plug":
            return self._respond(requests)
        return self.server.authenticate_batch(requests, via=via)


class BrokenLedger(AuditLedger):
    """An installed audit ledger whose every append fails."""

    def append(self, *args, **kwargs):
        raise OSError("ledger volume unavailable")


@pytest.fixture()
def observed():
    """A fresh registry and flight recorder, installed for one test."""
    registry, recorder = MetricsRegistry(), FlightRecorder()
    previous_registry = set_registry(registry)
    previous_recorder = set_flight_recorder(recorder)
    try:
        yield registry, recorder
    finally:
        set_registry(previous_registry)
        set_flight_recorder(previous_recorder)


def assert_errors_observed(observed, responses):
    """The broker's own error responses reach the metrics and recorder:
    one ``error`` count and one ``worker_error`` event per response."""
    registry, recorder = observed
    family = registry.get("echoimage_serve_requests_total")
    counted = sum(
        child.value
        for labels, child in family.samples()
        if labels["outcome"] == STATUS_ERROR
    )
    assert counted == len(responses)
    events = recorder.events(kind="worker_error")
    assert sorted(e["request_id"] for e in events) == sorted(
        r.request_id for r in responses
    )
    records = {r["request_id"]: r["status"] for r in recorder.requests()}
    for response in responses:
        assert records[response.request_id] == STATUS_ERROR


def plug_dispatcher(broker, gate):
    """Occupy the dispatcher with one held request; returns its future.

    After this returns, the dispatcher thread is blocked inside the
    authenticator (in-flight = 1) and the queue is empty, so subsequent
    submits accumulate deterministically until ``gate`` is set.
    """
    future = broker.submit(AuthenticationRequest("plug", DUMMY_BEEPS, tenant="plug"))
    assert wait_until(lambda: broker.depth == 0 and broker.pending == 1)
    return future


class TestAdmissionControl:
    def test_capacity_shed_is_structured_and_immediate(self):
        gate = threading.Event()
        auth = ScriptedAuthenticator(gate)
        broker = RequestBroker(auth, BrokerConfig(capacity=3, dispatch_batch=2))
        try:
            plug = plug_dispatcher(broker, gate)
            queued = [
                broker.submit(AuthenticationRequest(f"q-{i}", DUMMY_BEEPS))
                for i in range(3)
            ]
            assert broker.depth == 3
            # Queue full: the next submits resolve instantly with sheds.
            sheds = [
                broker.submit(AuthenticationRequest(f"over-{i}", DUMMY_BEEPS))
                for i in range(2)
            ]
            for i, future in enumerate(sheds):
                assert future.done(), "shed future must resolve immediately"
                response = future.result()
                assert response.status == STATUS_SHED
                assert response.shed_reason == SHED_CAPACITY
                assert response.request_id == f"over-{i}"
                assert response.result is None
                assert "admission refused (capacity)" in response.error
                assert "queue depth 3/3" in response.error
            assert broker.shed_counts == {SHED_CAPACITY: 2}
        finally:
            gate.set()
            run_guarded(broker.close)
        assert plug.result(GUARD_S).status == STATUS_OK
        assert [f.result(GUARD_S).status for f in queued] == [STATUS_OK] * 3
        assert broker.served == 4
        assert broker.pending == 0

    def test_shed_metrics_and_flight_event_correlate(self):
        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
        recorder = FlightRecorder()
        previous_recorder = set_flight_recorder(recorder)
        gate = threading.Event()
        broker = RequestBroker(
            ScriptedAuthenticator(gate), BrokerConfig(capacity=1, dispatch_batch=1)
        )
        try:
            plug_dispatcher(broker, gate)
            broker.submit(AuthenticationRequest("fills-queue", DUMMY_BEEPS))
            shed = broker.submit(
                AuthenticationRequest("shed-me", DUMMY_BEEPS, tenant="acme")
            ).result()
            gate.set()
            run_guarded(broker.close)
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous_registry)
            set_flight_recorder(previous_recorder)
        assert shed.status == STATUS_SHED
        assert (
            'echoimage_broker_shed_total{reason="capacity",tenant="acme"}'
            " 1" in rendered
        )
        assert (
            'echoimage_serve_requests_total{outcome="shed",tenant="acme"}'
            " 1" in rendered
        )
        # Queue fully drained by close: the depth gauge must read zero.
        assert "echoimage_broker_queue_depth 0" in rendered
        events = [e for e in recorder.events() if e["kind"] == "shed"]
        assert len(events) == 1
        assert events[0]["request_id"] == "shed-me"
        assert events[0]["reason"] == SHED_CAPACITY
        assert events[0]["tenant"] == "acme"

    def test_slo_burn_shed_gates_on_availability_rate(self):
        class BurnTracker:
            def __init__(self, rate, window_s):
                self.rate = rate
                self._window = window_s

            def evaluate(self):
                return {
                    "objectives": [
                        {
                            "name": "availability",
                            "burn_rates": {f"{self._window:g}": self.rate},
                        }
                    ]
                }

        config = BrokerConfig(
            capacity=8, max_burn_rate=1.0, burn_window_s=300.0
        )
        tracker = BurnTracker(rate=5.0, window_s=300.0)
        broker = RequestBroker(
            ScriptedAuthenticator(), config, slo_tracker=tracker
        )
        try:
            response = broker.authenticate(
                AuthenticationRequest("burning", DUMMY_BEEPS), timeout=GUARD_S
            )
            assert response.status == STATUS_SHED
            assert response.shed_reason == SHED_SLO_BURN
            # Once the budget stops burning, admissions resume.  The
            # broker caches the burn rate briefly (hot admission path),
            # so step past the throttle window before resubmitting.
            tracker.rate = 0.2
            time.sleep(0.3)
            response = broker.authenticate(
                AuthenticationRequest("calm", DUMMY_BEEPS), timeout=GUARD_S
            )
            assert response.status == STATUS_OK
        finally:
            run_guarded(broker.close)
        assert broker.shed_counts == {SHED_SLO_BURN: 1}


class TestFairDequeue:
    def test_round_robin_one_request_per_tenant_per_turn(self):
        gate = threading.Event()
        auth = ScriptedAuthenticator(gate)
        broker = RequestBroker(
            auth, BrokerConfig(capacity=16, dispatch_batch=4)
        )
        try:
            plug_dispatcher(broker, gate)
            # Tenant a backlogs 4 deep; b and c trickle.  Fairness means
            # a's backlog cannot monopolise the next dispatch batch.
            futures = [
                broker.submit(
                    AuthenticationRequest(
                        rid, DUMMY_BEEPS, tenant=rid.split("-")[0]
                    )
                )
                for rid in [
                    "a-0", "a-1", "a-2", "a-3", "b-0", "b-1", "c-0",
                ]
            ]
            gate.set()
            assert run_guarded(broker.drain)
            for future in futures:
                assert future.result(GUARD_S).status == STATUS_OK
        finally:
            run_guarded(broker.close)
        assert auth.batches[0] == ["plug"]
        # One per tenant per rotation turn: a, b, c each get a slot
        # before a's second request rides along in the leftover slot.
        assert auth.batches[1] == ["a-0", "b-0", "c-0", "a-1"]
        assert auth.batches[2] == ["b-1", "a-2", "a-3"]


class TestDispatch:
    def test_streaming_path_used_when_exit_policy_given(self):
        auth = ScriptedAuthenticator()
        broker = RequestBroker(
            auth, BrokerConfig(capacity=4, dispatch_batch=4), exit_policy=ExitPolicy()
        )
        try:
            response = broker.authenticate(
                AuthenticationRequest("stream-me", DUMMY_BEEPS), timeout=GUARD_S
            )
        finally:
            run_guarded(broker.close)
        assert response.status == STATUS_OK
        assert auth.streaming_batches == 1

    def test_authenticator_exception_becomes_error_responses(self, observed):
        broker = RequestBroker(
            FailingAuthenticator(), BrokerConfig(capacity=4, dispatch_batch=4)
        )
        try:
            first = broker.authenticate(
                AuthenticationRequest("boom-0", DUMMY_BEEPS), timeout=GUARD_S
            )
            # The dispatch loop must survive the raise and keep serving.
            second = broker.authenticate(
                AuthenticationRequest("boom-1", DUMMY_BEEPS), timeout=GUARD_S
            )
        finally:
            run_guarded(broker.close)
        for i, response in enumerate([first, second]):
            assert response.request_id == f"boom-{i}"
            assert response.status == STATUS_ERROR
            assert "authenticator exploded" in response.error
        assert broker.served == 2
        assert broker.pending == 0
        assert_errors_observed(observed, [first, second])


    def test_broken_observer_does_not_stop_dispatch(self, tmp_path):
        # The audit ledger cannot be appended to: observing the broker's
        # own error responses raises, yet every caller gets its answer
        # and the dispatch loop keeps serving.
        previous = set_audit_ledger(BrokenLedger(tmp_path / "audit.jsonl"))
        broker = RequestBroker(
            FailingAuthenticator(), BrokerConfig(capacity=4, dispatch_batch=4)
        )
        try:
            responses = [
                broker.authenticate(
                    AuthenticationRequest(f"broken-{i}", DUMMY_BEEPS),
                    timeout=GUARD_S,
                )
                for i in range(2)
            ]
        finally:
            run_guarded(broker.close)
            set_audit_ledger(previous)
        assert [r.status for r in responses] == [STATUS_ERROR] * 2
        assert broker.pending == 0


class TestLifecycle:
    def test_submit_after_close_raises(self):
        broker = RequestBroker(ScriptedAuthenticator(), BrokerConfig())
        run_guarded(broker.close)
        assert not broker.alive
        with pytest.raises(RuntimeError, match="broker is closed"):
            broker.submit(AuthenticationRequest("late", DUMMY_BEEPS))

    def test_close_without_drain_resolves_leftovers_with_errors(
        self, observed
    ):
        gate = threading.Event()
        auth = ScriptedAuthenticator(gate)
        broker = RequestBroker(
            auth,
            BrokerConfig(capacity=8, drain_timeout_s=0.2),
        )
        plug = plug_dispatcher(broker, gate)
        leftovers = [
            broker.submit(AuthenticationRequest(f"left-{i}", DUMMY_BEEPS))
            for i in range(3)
        ]
        run_guarded(lambda: broker.close(drain=False))
        responses = [future.result(GUARD_S) for future in leftovers]
        for i, response in enumerate(responses):
            assert response.request_id == f"left-{i}"
            assert response.status == STATUS_ERROR
            assert response.error == "broker closed before dispatch"
        assert_errors_observed(observed, responses)
        # The in-flight plug still completes once the gate releases.
        gate.set()
        assert plug.result(GUARD_S).status == STATUS_OK
        assert broker.served == 1  # only the plug was ever dispatched

    def test_context_manager_drains_on_exit(self):
        auth = ScriptedAuthenticator()
        with RequestBroker(auth, BrokerConfig(capacity=8)) as broker:
            futures = [
                broker.submit(AuthenticationRequest(f"cm-{i}", DUMMY_BEEPS))
                for i in range(5)
            ]
        assert broker.pending == 0
        assert not broker.alive
        assert [f.result(GUARD_S).status for f in futures] == [STATUS_OK] * 5

    def test_alive_tracks_authenticator(self):
        auth = ScriptedAuthenticator()
        broker = RequestBroker(auth, BrokerConfig())
        try:
            assert broker.alive
            auth.alive = False
            assert not broker.alive
        finally:
            auth.alive = True
            run_guarded(broker.close)


class TestEndToEnd:
    def test_broker_serves_real_authenticator(self, enrolled, bundle):
        _, attempt = enrolled
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(bundle, config) as server:
            with RequestBroker(
                server, BrokerConfig(capacity=8, dispatch_batch=4)
            ) as broker:
                futures = [
                    broker.submit(
                        AuthenticationRequest(f"e2e-{i}", tuple(attempt))
                    )
                    for i in range(4)
                ]
                responses = [f.result(GUARD_S) for f in futures]
        assert [r.request_id for r in responses] == [
            f"e2e-{i}" for i in range(4)
        ]
        for response in responses:
            assert response.status == STATUS_OK
            assert response.result is not None
            assert response.beeps_used == len(attempt)

    def test_unwritable_black_box_keeps_batch_outcomes(
        self, enrolled, bundle, observed, tmp_path
    ):
        # A served and a failing request share one batch while the
        # failure auto-dump points into a missing directory: the served
        # request stays ok, the failing one is answered once as error,
        # and the unwritten dump is recorded as an event.
        _, attempt = enrolled
        good = AuthenticationRequest("good", tuple(attempt[:2]))
        silent = AuthenticationRequest(
            "silent",
            tuple(
                BeepRecording(
                    np.zeros_like(rec.samples), rec.sample_rate, rec.emit_index
                )
                for rec in attempt[:2]
            ),
        )
        registry, recorder = observed
        recorder.auto_dump_path = str(tmp_path / "missing" / "box.json")
        gate = threading.Event()
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(bundle, config) as server:
            broker = RequestBroker(
                PluggedAuthenticator(server, gate),
                BrokerConfig(capacity=4, dispatch_batch=4),
            )
            try:
                plug = plug_dispatcher(broker, gate)
                futures = [broker.submit(good), broker.submit(silent)]
                gate.set()
                plug.result(GUARD_S)
                served, failed = [f.result(GUARD_S) for f in futures]
            finally:
                run_guarded(broker.close)
        assert served.status == STATUS_OK
        assert failed.status == STATUS_ERROR
        assert "DistanceEstimationError" in failed.error
        family = registry.get("echoimage_serve_requests_total")
        counts: dict = {}
        for labels, child in family.samples():
            outcome = labels["outcome"]
            counts[outcome] = counts.get(outcome, 0) + child.value
        assert counts == {STATUS_OK: 1, STATUS_ERROR: 1}
        (event,) = recorder.events(kind="dump_failed")
        assert event["path"] == recorder.auto_dump_path

    def test_broker_streaming_disabled_exit_matches_batch(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        request = AuthenticationRequest("stream-e2e", tuple(attempt))
        with BatchAuthenticator(bundle, ServingConfig()) as server:
            (batch,) = run_guarded(
                lambda: server.authenticate_batch([request])
            )
            with RequestBroker(
                server, BrokerConfig(capacity=4, dispatch_batch=4), exit_policy=ExitPolicy()
            ) as broker:
                streamed = broker.authenticate(request, timeout=GUARD_S)
        assert streamed.status == batch.status == STATUS_OK
        assert not streamed.early_exit
        assert streamed.beeps_used == len(attempt)
        assert streamed.result.label == batch.result.label
        assert streamed.result.scores == batch.result.scores
