"""Continuous-ingest request broker with admission control.

:class:`RequestBroker` fronts a :class:`~repro.serve.executor.BatchAuthenticator`
with a bounded queue so the serving layer can accept a continuous trickle
(or flood) of requests instead of pre-formed batches:

* **Admission control** — the queue holds at most ``capacity`` requests;
  beyond that, :meth:`RequestBroker.submit` resolves the request
  immediately with a structured ``shed`` response (reason
  ``"capacity"``) instead of queueing without bound.  Shedding is
  deliberate and observable:
  ``echoimage_broker_shed_total{reason,tenant}`` counts it, a ``shed``
  flight-recorder event carries the request id, and the response echoes
  the id so callers stay correlated.  Admissions and sheds also feed
  the :class:`repro.obs.sentinel.SecuritySentinel` (when one is
  installed), whose ``shed_spike`` rule flags a single tenant flooding
  the queue.
* **SLO-aware shedding** — with an attached
  :class:`~repro.obs.slo.SLOTracker` and ``max_burn_rate > 0``, new
  admissions are refused (reason ``"slo_burn"``) while the availability
  error budget burns faster than the configured ceiling over the
  configured window.  Load-shedding at admission is the cheapest point
  to protect the remaining budget.
* **Per-tenant fair dequeue** — queued requests are grouped by
  :attr:`~repro.serve.requests.AuthenticationRequest.tenant` and drained
  round-robin, one request per tenant per turn, so a single chatty
  tenant cannot starve the rest however deep its backlog.
* **Single-threaded dispatch** — a ``BatchAuthenticator`` must be driven
  from one thread; the broker's dispatcher thread is that thread.  It
  collects up to ``dispatch_batch`` requests per turn and serves them
  through :meth:`~BatchAuthenticator.authenticate_streaming` (when an
  exit policy is configured) or :meth:`~BatchAuthenticator.authenticate_batch`.
  Concurrency comes from the authenticator's own pool backends.

Every admission records a ``broker.enqueue`` span.  The broker never
raises out of the dispatch loop: authenticator failures become
structured ``error`` responses, worker hangs become ``timeout``
responses bounded by the authenticator's batch budget, so the loop —
and the queue — always keeps draining.

Batches are served with ``via="broker"``, which the authenticator's
outcome fan-out (:func:`repro.serve.outcomes.record_outcomes`) stamps
on their captures.  The responses the broker resolves itself — sheds,
and the ``error`` responses of a raising authenticator or
``close(drain=False)`` — go through the same fan-out.  Outside it the
broker feeds only the sentinel's admission stream and its queue-depth
gauge.

Example::

    bundle = ModelBundle.from_pipeline(enrolled_pipeline)
    with BatchAuthenticator(bundle) as server:
        with RequestBroker(server, BrokerConfig(capacity=32)) as broker:
            futures = [broker.submit(req) for req in requests]
            responses = [f.result() for f in futures]
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from time import monotonic

from repro.config import BrokerConfig, ExitPolicy
from repro.obs import ensure_trace, get_security_sentinel, trace
from repro.obs.slo import SLOTracker
from repro.obs.telemetry import pipeline_metrics
from repro.serve.executor import BatchAuthenticator
from repro.serve.outcomes import record_outcomes
from repro.serve.requests import (
    STATUS_ERROR,
    STATUS_SHED,
    AuthenticationRequest,
    AuthenticationResponse,
)

#: Shed because the bounded queue was full.
SHED_CAPACITY = "capacity"
#: Shed because the availability error budget was burning too fast.
SHED_SLO_BURN = "slo_burn"

#: Seconds between SLO re-evaluations on the admission path (evaluating
#: the tracker reads the whole registry; once per interval is plenty).
_SLO_CHECK_INTERVAL_S = 0.25


class RequestBroker:
    """Bounded, tenant-fair request broker over a batch authenticator.

    Args:
        authenticator: The (opened) executor requests are served
            through.  The broker's dispatcher is the single thread that
            drives it; do not call ``authenticate_batch`` on it from
            elsewhere while a broker owns it.
        config: Queueing and shedding parameters.
        exit_policy: When given, dispatched batches run the streaming
            early-exit path with this policy; ``None`` runs the plain
            batch path.
        slo_tracker: Optional burn-rate source for SLO-aware shedding
            (active only when ``config.max_burn_rate > 0``).

    The dispatcher thread starts lazily on the first :meth:`submit` and
    stops — after draining the queue — on :meth:`close` (or leaving the
    ``with`` block).
    """

    def __init__(
        self,
        authenticator: BatchAuthenticator,
        config: BrokerConfig | None = None,
        exit_policy: ExitPolicy | None = None,
        slo_tracker: SLOTracker | None = None,
    ) -> None:
        self._authenticator = authenticator
        self.config = config or BrokerConfig()
        self._exit_policy = exit_policy
        self._slo = slo_tracker
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: Per-tenant FIFO queues, drained round-robin.
        self._queues: dict[str, deque] = {}
        #: Tenant service order; rotated one slot per dequeued request.
        self._order: deque[str] = deque()
        self._depth = 0
        self._inflight = 0
        self._closed = False
        self._dispatcher: threading.Thread | None = None
        self._shed_counts: dict[str, int] = {}
        self._served = 0
        self._last_slo_check = 0.0
        self._last_burn = 0.0

    # -- introspection -------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently waiting in the queue."""
        with self._lock:
            return self._depth

    @property
    def pending(self) -> int:
        """Queued plus in-flight requests (0 = fully drained)."""
        with self._lock:
            return self._depth + self._inflight

    @property
    def served(self) -> int:
        """Requests dispatched through the authenticator so far."""
        with self._lock:
            return self._served

    @property
    def shed_counts(self) -> dict[str, int]:
        """Sheds so far, by reason."""
        with self._lock:
            return dict(self._shed_counts)

    @property
    def alive(self) -> bool:
        """Whether the broker still admits requests."""
        return not self._closed and self._authenticator.alive

    # -- admission -----------------------------------------------------

    def submit(self, request: AuthenticationRequest) -> "Future":
        """Admit one request; returns a future for its response.

        The future always resolves — with the served response, or
        immediately with a structured ``shed`` response when admission
        control refuses the request.  Safe to call from any number of
        threads.

        Raises:
            RuntimeError: When the broker is closed.
        """
        future: Future = Future()
        with ensure_trace(), trace(
            "broker.enqueue",
            tenant=request.tenant,
            request_id=request.request_id,
        ) as span:
            if self._closed:
                raise RuntimeError("broker is closed")
            reason = self._admission_refusal()
            if reason is not None:
                span.update(shed=reason)
                future.set_result(self._shed_response(request, reason))
                return future
            with self._lock:
                queue = self._queues.get(request.tenant)
                if queue is None:
                    queue = deque()
                    self._queues[request.tenant] = queue
                    self._order.append(request.tenant)
                queue.append((request, future))
                self._depth += 1
                depth = self._depth
                self._wakeup.notify()
            span.update(depth=depth)
            self._set_depth_gauge(depth)
            sentinel = get_security_sentinel()
            if sentinel is not None:
                sentinel.observe_admission(
                    tenant=request.tenant,
                    request_id=request.request_id,
                )
            self._ensure_dispatcher()
        return future

    def authenticate(self, request: AuthenticationRequest, timeout=None):
        """Submit one request and block for its response."""
        return self.submit(request).result(timeout=timeout)

    def _admission_refusal(self) -> str | None:
        """The shed reason refusing this admission, or ``None``."""
        with self._lock:
            if self._depth >= self.config.capacity:
                return SHED_CAPACITY
        if self._slo is not None and self.config.max_burn_rate > 0:
            if self._availability_burn() > self.config.max_burn_rate:
                return SHED_SLO_BURN
        return None

    def _availability_burn(self) -> float:
        """The availability burn rate, re-evaluated at most every
        ``_SLO_CHECK_INTERVAL_S`` (admission is a hot path)."""
        now = monotonic()
        with self._lock:
            if now - self._last_slo_check < _SLO_CHECK_INTERVAL_S:
                return self._last_burn
            self._last_slo_check = now
        burn = 0.0
        document = self._slo.evaluate()
        for objective in document.get("objectives", ()):
            if objective.get("name") == "availability":
                burn = float(
                    objective.get("burn_rates", {}).get(
                        f"{self.config.burn_window_s:g}", 0.0
                    )
                )
                break
        with self._lock:
            self._last_burn = burn
        return burn

    def _shed_response(
        self, request: AuthenticationRequest, reason: str
    ) -> AuthenticationResponse:
        """A ``shed`` response for a refused admission, observed."""
        with self._lock:
            self._shed_counts[reason] = self._shed_counts.get(reason, 0) + 1
        response = AuthenticationResponse(
            request_id=request.request_id,
            status=STATUS_SHED,
            shed_reason=reason,
            error=(
                f"admission refused ({reason}): queue depth "
                f"{self.depth}/{self.config.capacity}"
            ),
        )
        record_outcomes([request], [response], via="broker")
        return response

    # -- dispatch ------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        with self._lock:
            if self._dispatcher is None or not self._dispatcher.is_alive():
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-broker-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()

    def _next_batch(self) -> list[tuple[AuthenticationRequest, Future]]:
        """Block for work; drain up to ``dispatch_batch`` tenant-fairly.

        Returns an empty list only when the broker is closed and the
        queue is empty — the dispatcher's exit signal.
        """
        with self._lock:
            while self._depth == 0 and not self._closed:
                self._wakeup.wait(timeout=self.config.poll_interval_s)
            batch: list[tuple[AuthenticationRequest, Future]] = []
            # One request per tenant per turn of the rotation: with T
            # backlogged tenants each gets ~1/T of every batch no matter
            # how deep any single backlog is.
            while self._depth > 0 and len(batch) < self.config.dispatch_batch:
                tenant = self._order[0]
                self._order.rotate(-1)
                queue = self._queues[tenant]
                if queue:
                    batch.append(queue.popleft())
                    self._depth -= 1
                if not queue:
                    # Empty tenants leave the rotation; they re-enter on
                    # their next submit.
                    del self._queues[tenant]
                    self._order.remove(tenant)
            self._inflight += len(batch)
            depth = self._depth
        self._set_depth_gauge(depth)
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if not batch:
                if self._closed:
                    return
                continue
            requests = [request for request, _ in batch]
            try:
                if self._exit_policy is not None:
                    responses = self._authenticator.authenticate_streaming(
                        requests, self._exit_policy, via="broker"
                    )
                else:
                    responses = self._authenticator.authenticate_batch(
                        requests, via="broker"
                    )
            except Exception as exc:  # noqa: BLE001 — keep draining
                responses = self._fail(requests, repr(exc))
            with self._lock:
                self._inflight -= len(batch)
                self._served += len(batch)
            for (_, future), response in zip(batch, responses):
                future.set_result(response)

    @staticmethod
    def _fail(
        requests: list[AuthenticationRequest], error: str
    ) -> list[AuthenticationResponse]:
        """``error`` responses the broker resolves itself, observed.

        Observing is best effort here: serving may have raised out of a
        broken observer (its ``repr`` is then the responses' ``error``),
        and the callers must get their answers, and the dispatch loop
        keep running, either way.
        """
        responses = [
            AuthenticationResponse(
                request_id=request.request_id,
                status=STATUS_ERROR,
                error=error,
            )
            for request in requests
        ]
        try:
            record_outcomes(requests, responses, via="broker")
        except Exception:  # noqa: BLE001 — answer the callers regardless
            pass
        return responses

    def _set_depth_gauge(self, depth: int) -> None:
        pipeline_metrics().broker_queue_depth.set(float(depth))

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queued and in-flight work completes.

        Returns ``True`` when fully drained, ``False`` on timeout.
        """
        limit = self.config.drain_timeout_s if timeout is None else timeout
        deadline = monotonic() + limit
        while monotonic() < deadline:
            if self.pending == 0:
                return True
            threading.Event().wait(self.config.poll_interval_s)
        return self.pending == 0

    def close(self, drain: bool = True) -> None:
        """Stop admissions; optionally drain, then stop the dispatcher.

        Idempotent.  With ``drain=False`` still-queued requests resolve
        with structured ``error`` responses instead of hanging their
        futures forever.
        """
        if drain and not self._closed:
            self.drain()
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
            leftovers: list[tuple[AuthenticationRequest, Future]] = []
            if not drain:
                for queue in self._queues.values():
                    leftovers.extend(queue)
                    queue.clear()
                self._queues.clear()
                self._order.clear()
                self._depth = 0
        # A caller may have cancelled a queued future; it needs no answer.
        leftovers = [(r, f) for r, f in leftovers if not f.done()]
        responses = self._fail(
            [request for request, _ in leftovers],
            "broker closed before dispatch",
        )
        for (_, future), response in zip(leftovers, responses):
            future.set_result(response)
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            dispatcher.join(timeout=self.config.drain_timeout_s)
        self._set_depth_gauge(0)

    def __enter__(self) -> "RequestBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
