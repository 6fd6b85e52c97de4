"""Set-up, load generation and the output check of one workload run.

One generator thread (the caller) drives ``RequestBroker.submit``; the
broker's dispatcher hands batches to a ``BatchAuthenticator`` on the
default ``ServingConfig`` (thread backend, one worker per CPU).
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SERVE_REQUESTS = "echoimage_serve_requests_total"


@dataclass
class Observers:
    """The process-wide observers of one run, installed and removed as a
    unit.  The metrics registry and flight recorder are always on; the
    audit ledger, capture store and sentinel only when asked for."""

    registry: object
    recorder: object
    ledger: object = None
    capture: object = None
    sentinel: object = None
    workdir: Path | None = None

    @classmethod
    def install(cls, opt_in: bool, workdir: Path) -> "Observers":
        from repro import obs

        observers = cls(
            registry=obs.MetricsRegistry(), recorder=obs.FlightRecorder()
        )
        obs.set_registry(observers.registry)
        obs.set_flight_recorder(observers.recorder)
        if opt_in:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            observers.workdir = workdir
            observers.ledger = obs.AuditLedger(workdir / "audit.jsonl")
            observers.capture = obs.CaptureStore(
                root=workdir / "captures", async_persist=True
            )
            observers.sentinel = obs.SecuritySentinel()
            obs.set_audit_ledger(observers.ledger)
            obs.set_capture_store(observers.capture)
            obs.set_security_sentinel(observers.sentinel)
        return observers

    def remove(self) -> None:
        """Uninstall, flush the capture writer and delete on-disk state."""
        from repro import obs

        obs.set_audit_ledger(None)
        obs.set_capture_store(None)
        obs.set_security_sentinel(None)
        if self.capture is not None:
            self.capture.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def served_by_outcome(self) -> dict[str, int]:
        """``echoimage_serve_requests_total`` summed over tenants."""
        family = self.registry.get(SERVE_REQUESTS)
        counts: dict[str, int] = {}
        if family is None:
            return counts
        for labels, child in family.samples():
            outcome = labels["outcome"]
            counts[outcome] = counts.get(outcome, 0) + int(child.value)
        return counts


@dataclass
class Service:
    """An enrolled, warmed-up broker over a batch authenticator."""

    bundle: object
    authenticator: object
    broker: object
    setup_s: float

    def close(self) -> None:
        self.broker.close()
        self.authenticator.close()


def set_up(workload, household, pipeline_factory=None) -> Service:
    """Enroll, snapshot, build the authenticator and broker, warm up.

    The timed span is ``setup_s``: enrollment, the bundle snapshot,
    building the served path and serving one warm-up request per worker,
    so every worker has built its pipeline before traffic starts.
    Synthesizing the recordings is not part of it.
    """
    from repro import EchoImagePipeline
    from repro.config import BrokerConfig, ServingConfig
    from repro.serve import (
        AuthenticationRequest,
        BatchAuthenticator,
        ModelBundle,
        RequestBroker,
    )

    start = perf_counter()
    pipeline = EchoImagePipeline(config=workload.config())
    pipeline.enroll_users(household.enrollment)
    bundle = ModelBundle.from_pipeline(pipeline)
    serving = ServingConfig()
    authenticator = BatchAuthenticator(
        bundle, serving, pipeline_factory=pipeline_factory
    )
    broker = RequestBroker(
        authenticator, BrokerConfig(), exit_policy=workload.exit_policy()
    )
    warmups = [
        broker.submit(
            AuthenticationRequest(
                f"warmup-{i}", household.pool[i % len(household.pool)].recordings
            )
        )
        for i in range(serving.resolve_workers())
    ]
    for future in warmups:
        response = future.result(timeout=120.0)
        if not response.ok:
            raise RuntimeError(f"warm-up request failed: {response.error}")
    return Service(bundle, authenticator, broker, perf_counter() - start)


@dataclass
class Sent:
    """One request of a measured phase and what happened to it."""

    request_id: str
    attempt: int
    tenant: str
    beeps: int
    scheduled: float = 0.0
    submitted: float = 0.0
    resolved: float = 0.0
    responses: list = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        """Scheduled send time to resolution (charges generator stalls)."""
        return self.resolved - self.scheduled

    @property
    def response(self):
        return self.responses[0] if self.responses else None


class _Replies:
    """Resolution times and responses, recorded by future callbacks."""

    def __init__(self) -> None:
        self._cond = threading.Condition()

    def submit(self, broker, sent: Sent, recordings) -> None:
        from repro.serve import AuthenticationRequest

        def resolved(future, sent=sent):
            now = perf_counter()
            with self._cond:
                sent.resolved = now
                sent.responses.append(future.result())
                self._cond.notify_all()

        sent.submitted = perf_counter()
        future = broker.submit(
            AuthenticationRequest(
                sent.request_id, recordings, tenant=sent.tenant
            )
        )
        future.add_done_callback(resolved)

    def wait(self, sent: list[Sent], timeout_s: float = 120.0) -> None:
        """Block until every request has its reply recorded."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: all(s.responses for s in sent), timeout=timeout_s
            ):
                missing = sum(1 for s in sent if not s.responses)
                raise TimeoutError(f"{missing} requests never resolved")


def make_requests(phase: str, draws, household) -> list[Sent]:
    """One :class:`Sent` per draw, with ids unique within the phase."""
    return [
        Sent(
            f"{phase}-{i:05d}", d.attempt, d.tenant,
            len(household.pool[d.attempt].recordings),
        )
        for i, d in enumerate(draws)
    ]


def open_loop(service: Service, household, sent: list[Sent], offsets) -> None:
    """Send each request at its scheduled time, never waiting for replies;
    return once every reply is in."""
    replies = _Replies()
    start = perf_counter() + 0.01
    for item, offset in zip(sent, offsets):
        item.scheduled = start + float(offset)
        delay = item.scheduled - perf_counter()
        if delay > 0:
            time.sleep(delay)
        replies.submit(
            service.broker, item, household.pool[item.attempt].recordings
        )
    replies.wait(sent)


def drain(service: Service, household, sent: list[Sent]) -> float:
    """Submit the whole burst at once; its throughput once all replied."""
    replies = _Replies()
    for item in sent:
        replies.submit(
            service.broker, item, household.pool[item.attempt].recordings
        )
        item.scheduled = item.submitted
    replies.wait(sent)
    completed = sum(1 for s in sent if s.response.ok)
    window = max(s.resolved for s in sent) - min(s.submitted for s in sent)
    return completed / window


# -- output check ------------------------------------------------------


def _decision(result) -> tuple:
    return (
        str(result.label),
        tuple(str(label) for label in result.per_beep_labels),
        tuple(result.scores),
        int(result.beeps_used),
    )


def check_outputs(
    workload, service: Service, household, sent: list[Sent], registry_delta
) -> list[str]:
    """Every way the served outputs can be wrong, as messages (empty = ok).

    * every request got exactly one response, with its own id and a
      known status;
    * every served decision (label, per-beep labels, scores, beeps used)
      equals a direct call of the bundle's pipeline on the same attempt
      under the same policy;
    * the ``echoimage_serve_requests_total`` delta, by outcome, equals
      this run's own count of responses by status.
    """
    from repro.serve import STATUSES

    problems: list[str] = []
    ids = [s.request_id for s in sent]
    if len(set(ids)) != len(ids):
        problems.append("request ids are not unique")
    by_status: dict[str, int] = {}
    for item in sent:
        if len(item.responses) != 1:
            problems.append(
                f"{item.request_id}: {len(item.responses)} responses"
            )
            continue
        response = item.response
        if response.request_id != item.request_id:
            problems.append(
                f"{item.request_id}: answered as {response.request_id}"
            )
        if response.status not in STATUSES:
            problems.append(f"{item.request_id}: status {response.status!r}")
        by_status[response.status] = by_status.get(response.status, 0) + 1
    if by_status != {k: v for k, v in registry_delta.items() if v}:
        problems.append(
            f"{SERVE_REQUESTS} delta {registry_delta} != responses {by_status}"
        )

    pipeline = service.bundle.build_pipeline()
    policy = workload.exit_policy()
    for attempt in household.pool:
        served = [
            s.response
            for s in sent
            if s.attempt == attempt.index and s.response and s.response.ok
        ]
        if not served:
            continue
        recordings = list(attempt.recordings)
        if policy is None:
            direct = _decision(pipeline.authenticate(recordings))
        else:
            direct = _decision(
                pipeline.authenticate_streaming(recordings, policy)
            )
        for response in served:
            if _decision(response.result) != direct:
                problems.append(
                    f"{response.request_id}: served {_decision(response.result)}"
                    f" != direct {direct} for attempt {attempt.index}"
                )
    return problems
