"""One fan-out from resolved requests to every installed observer.

:func:`record_outcomes` is the only serving code that turns resolved
requests into observer calls.  The executor calls it once per batch;
the broker calls it for the responses it resolves itself: sheds, and
the ``error`` responses of a raising authenticator or
``close(drain=False)``.  Each call reads the installed observers once
and feeds every response to the ``echoimage_serve_*`` metrics, the
capture store, the audit ledger, the security sentinel and the flight
recorder, so a request's audit entry, flight record, sentinel
observation and capture cannot disagree.  It is the only writer of
served captures: the worker returns the answering attempt's capture on
the response, and the fan-out records it once, with its serving
context.  It is also the only feeder of the serving authenticator's
drift suite: every ``ok`` response's per-beep scores and echo SNR go
in, in response order, so the alerts do not depend on the backend or
the worker count.  Sheds were never executed:
they reach the metrics, the sentinel's admission feed and a ``shed``
flight event only.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

from repro.obs import (
    DriftAlert,
    DriftSuite,
    FlightRecorder,
    PipelineTrace,
    correlation_scope,
    environment_fingerprint,
    get_audit_ledger,
    get_capture_store,
    get_flight_recorder,
    get_security_sentinel,
)
from repro.obs.telemetry import pipeline_metrics
from repro.serve.requests import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    AuthenticationResponse,
)


def record_outcomes(
    requests: Sequence[AuthenticationRequest],
    responses: Sequence[AuthenticationResponse],
    *,
    backend: str | None = None,
    streaming: bool = False,
    via: str | None = None,
    recorder: FlightRecorder | None = None,
    bundle=None,
    batch_trace: PipelineTrace | None = None,
    drift: DriftSuite | None = None,
) -> list[AuthenticationResponse]:
    """Feed resolved requests to every installed observer, once each.

    Args:
        requests: The requests, in the order of ``responses``; each
            response's tenant comes from its request.
        responses: One resolved response per request.  A response's
            ``capture`` is recorded into the installed capture store.
        backend: Serving backend that produced the responses; ``None``
            for responses the broker made itself.
        streaming: Whether the batch ran the streaming path (feeds the
            exit-point metrics).
        via: How the requests entered the system (``"broker"`` for
            brokered traffic, ``None`` for direct calls), recorded on
            their captures.
        recorder: Flight recorder to write into; defaults to the
            process-wide recorder.
        bundle: Serving bundle, stashed in the capture store and
            referenced from each capture by content hash.
        batch_trace: Enclosing batch trace, kept as the decision
            context of timed-out and failed requests (they have no
            worker trace of their own).
        drift: The serving authenticator's drift suite, fed each ``ok``
            response's per-beep scores and echo SNR under the response's
            request id.  The broker's own responses are never ``ok`` and
            pass none.

    Returns:
        The responses as callers see them: each carries the drift
        alerts it raised, and its recorded capture is cleared, so
        callers that keep responses (perfbench) do not pin recordings
        and stage arrays past the store's own LRU.
    """
    if not responses:
        return []
    metrics = pipeline_metrics()
    store = get_capture_store()
    ledger = get_audit_ledger()
    sentinel = get_security_sentinel()
    if recorder is None:
        recorder = get_flight_recorder()
    bundle_hash = (
        store.ensure_bundle(bundle)
        if store is not None and bundle is not None
        else None
    )
    failed: list[str] = []
    resolved: list[AuthenticationResponse] = []
    for request, response in zip(requests, responses):
        shed = response.status == STATUS_SHED
        tenant = metrics.tenant_label(request.tenant)
        metrics.serve_requests.labels(
            outcome=response.status, tenant=tenant
        ).inc()
        if shed:
            metrics.broker_shed.labels(
                reason=response.shed_reason, tenant=tenant
            ).inc()
        if response.degradation is not None:
            metrics.serve_degradations.labels(
                step=response.degradation
            ).inc()
        if response.latency_s is not None:
            metrics.serve_request_latency.labels().observe(
                response.latency_s,
                exemplar={
                    "request_id": response.request_id,
                    "value": response.latency_s,
                },
            )
        if streaming and response.beeps_used is not None:
            metrics.stream_exits.labels(
                stage="early" if response.early_exit else "full"
            ).inc()
            metrics.stream_beeps_used.observe(float(response.beeps_used))
        result = response.result
        failure = response.status in (STATUS_TIMEOUT, STATUS_ERROR)
        if failure:
            failed.append(response.request_id)
        if not shed:
            if store is not None and response.capture is not None:
                # The worker collected the pipeline-level capture; the
                # serving side owns the bundle and the context.
                store.record(
                    replace(
                        response.capture,
                        bundle_hash=bundle_hash,
                        degradation=response.degradation,
                        tenant=request.tenant,
                        backend=backend,
                        via=via,
                    )
                )
            if ledger is not None:
                fields = _audit_fields(response, backend)
                ledger.append("serve", response.request_id, **fields)
            trace = None
            if result is not None and result.trace:
                trace = result.trace
            elif failure:
                trace = batch_trace
            recorder.record_request(
                response.request_id,
                response.status,
                latency_s=response.latency_s,
                degradation=response.degradation,
                error=response.error,
                trace=trace,
            )
        event = _status_event(request, response, backend)
        if event is not None:
            kind, details = event
            recorder.record_event(
                kind, request_id=response.request_id, **details
            )
        alerts: tuple[DriftAlert, ...] = ()
        if drift is not None and response.status == STATUS_OK:
            alerts = _observe_drift(drift, response)
        for alert in alerts:
            if metrics is not None:
                metrics.drift_alerts.labels(
                    monitor=alert.monitor, kind=alert.kind
                ).inc()
            recorder.record_event(
                "drift_alert",
                request_id=response.request_id,
                monitor=alert.monitor,
                alert_kind=alert.kind,
                message=alert.message,
            )
        if sentinel is not None:
            if shed:
                sentinel.observe_admission(
                    tenant=request.tenant,
                    shed_reason=response.shed_reason,
                    request_id=response.request_id,
                )
            elif result is not None:
                # The best finite SVDD score is what an adaptive
                # attacker optimises against the gate; identified users
                # enter the fan-out tracker only on accepted attempts.
                finite = [float(s) for s in result.scores if math.isfinite(s)]
                sentinel.observe_auth(
                    accepted=bool(result.accepted),
                    tenant=request.tenant,
                    user=str(result.label) if result.accepted else None,
                    score=max(finite) if finite else None,
                    request_id=response.request_id,
                )
        if alerts or response.capture is not None:
            response = replace(response, capture=None, drift_alerts=alerts)
        resolved.append(response)
    if failed:
        recorder.auto_dump(
            "batch contained failed requests",
            request_ids=failed,
            backend=backend,
        )
    return resolved


def _observe_drift(
    drift: DriftSuite, response: AuthenticationResponse
) -> tuple[DriftAlert, ...]:
    """Feed one ``ok`` decision to the drift suite; the alerts it raised.

    The scores go in beep by beep, then the echo SNR, inside the
    response's correlation scope, so each alert names the request whose
    observation raised it.
    """
    result = response.result
    alerts: list[DriftAlert] = []
    with correlation_scope(response.request_id):
        for score in result.scores:
            alerts += drift.observe("auth.score", score)
        alerts += drift.observe(
            "distance.snr_db", result.distance.echo_snr_db
        )
    return tuple(alerts)


def _status_event(
    request: AuthenticationRequest,
    response: AuthenticationResponse,
    backend: str | None,
) -> tuple[str, dict] | None:
    """The flight event a response's outcome calls for, if any."""
    if response.status == STATUS_SHED:
        return "shed", {
            "reason": response.shed_reason,
            "tenant": request.tenant,
        }
    if response.status == STATUS_TIMEOUT:
        return "timeout", {"error": response.error, "backend": backend}
    if response.status == STATUS_ERROR:
        return "worker_error", {"error": response.error, "backend": backend}
    if response.degradation is not None:
        return "degradation", {"step": response.degradation}
    if response.early_exit:
        return "early_exit", {"beeps_used": response.beeps_used}
    return None


def _audit_fields(
    response: AuthenticationResponse, backend: str | None
) -> dict:
    """One response's decision context, as audit-ledger fields."""
    result = response.result
    if result is not None:
        decision = "accept" if result.accepted else "reject"
    else:
        decision = response.status
    fields: dict = {
        "status": response.status,
        "decision": decision,
        "backend": backend,
        "environment": environment_fingerprint(),
    }
    if result is not None:
        fields["user"] = str(result.label)
        fields["svdd_scores"] = [float(s) for s in result.scores]
        # NaN marks beeps the SVDD gate rejected; JSON has no NaN.
        fields["svm_margins"] = [
            float(m) if math.isfinite(m) else None for m in result.margins
        ]
        fields["distance_m"] = float(result.distance.user_distance_m)
    if response.degradation is not None:
        fields["degradation"] = response.degradation
    if response.beeps_used is not None:
        # The beeps the decision actually consumed — the degraded
        # (shortened) attempt length, or the streaming exit point.
        fields["beeps_used"] = int(response.beeps_used)
    if response.early_exit:
        fields["early_exit"] = True
    if response.latency_s is not None:
        fields["latency_s"] = response.latency_s
    if response.error is not None:
        fields["error"] = response.error
    return fields
