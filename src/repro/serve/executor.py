"""Batched, parallel execution of authentication requests.

:class:`BatchAuthenticator` fans a batch of
:class:`~repro.serve.requests.AuthenticationRequest` objects across a
worker pool and returns one response per request, in input order.  Three
backends share the same worker logic:

``serial``
    In-line execution on the calling thread — the debugging baseline and
    the reference the golden harness compares against.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Workers share
    the model bundle zero-copy (fitted SVDD/SVM), so results are
    bit-identical to the serial path.  NumPy releases the
    GIL inside the imaging GEMMs, which is where attempts spend most of
    their time.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; the (picklable)
    bundle is shipped once per worker via the pool initializer.

Each worker authenticates at full fidelity first and, on failure, walks
the :mod:`~repro.serve.degradation` ladder before giving up.  The parent
process records per-request outcomes into :mod:`repro.core.telemetry`
(``echoimage_serve_*`` families) and wraps every batch in a
``serve.batch`` trace span.

**Cross-worker telemetry propagation.**  Serial and thread workers
record pipeline metrics and traces straight into the parent's global
registry/sinks.  Process workers cannot — their increments land in the
worker interpreter and would be silently lost — so ``_process_run``
collects each request's telemetry into a fresh per-request registry and
ships the delta (plus the serialised traces) back piggybacked on the
:class:`~repro.serve.requests.AuthenticationResponse`; the parent merges
the delta into its registry and replays the traces through the sink API,
making all three backends report identical totals.

**Flight recorder.**  Every completed batch is written into the
process-wide :class:`~repro.obs.FlightRecorder` (request records plus
timeout/degradation/drift/crash events); a batch containing failures
triggers an automatic black-box dump when the recorder has a dump path
configured.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import replace
from time import monotonic, perf_counter
from typing import Callable

from repro.config import EchoImageConfig, ExitPolicy, ServingConfig
from repro.core.pipeline import EchoImagePipeline
from repro.core.telemetry import pipeline_metrics
from repro.obs import (
    CaptureStore,
    FlightRecorder,
    MetricsRegistry,
    PipelineTrace,
    add_sink,
    correlation_scope,
    emit_trace,
    ensure_trace,
    get_audit_ledger,
    get_capture_store,
    get_flight_recorder,
    get_registry,
    get_security_sentinel,
    metrics_enabled,
    remove_sink,
    set_capture_store,
    set_registry,
    trace,
)
from repro.serve.bundle import ModelBundle
from repro.serve.degradation import DegradationPolicy, DegradationStep
from repro.serve.requests import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    AuthenticationResponse,
)

#: Signature of the pipeline-construction seam: ``(bundle, config,
#: unused) -> pipeline``.  Tests inject crashing/hanging pipelines
#: through it; production leaves it at :meth:`ModelBundle.build_pipeline`.
#: Unused third argument: perfbench's ``batched_imaging`` (ROADMAP item 6).
PipelineFactory = Callable[
    [ModelBundle, EchoImageConfig | None, bool], EchoImagePipeline
]


def _default_factory(
    bundle: ModelBundle, config: EchoImageConfig | None, _unused: bool
) -> EchoImagePipeline:
    return bundle.build_pipeline(config)


class _WorkerRuntime:
    """Per-worker pipelines plus the degradation walk.

    One runtime belongs to exactly one worker (thread or process): the
    imager's per-plane steering tables make pipelines thread-unsafe, so
    runtimes are never shared.  Pipelines are built lazily per
    degradation step and reused across requests, keeping enrollment
    state shared (through the bundle).
    """

    def __init__(
        self,
        bundle: ModelBundle,
        policy: DegradationPolicy,
        degrade_on_error: bool,
        factory: PipelineFactory,
    ) -> None:
        self.bundle = bundle
        self.policy = policy
        self.degrade_on_error = degrade_on_error
        self.factory = factory
        self._pipelines: dict[str | None, EchoImagePipeline] = {}

    def _pipeline(self, step: DegradationStep | None) -> EchoImagePipeline:
        key = None if step is None else step.name
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            config = None if step is None else step.scale_config(
                self.bundle.config
            )
            # Always True and ignored; see PipelineFactory.
            pipeline = self.factory(self.bundle, config, True)
            self._pipelines[key] = pipeline
        return pipeline

    def run(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        """Serve one request, degrading on failure.

        The whole walk runs inside the request's correlation scope, so
        every span, drift alert and metric exemplar recorded underneath
        carries ``request.request_id`` — on the process backend the id
        travels with the pickled request, which is what keeps serial,
        thread and process runs identically correlated.

        When ``exit_policy`` is given the full-fidelity attempt runs the
        streaming early-exit path; degradation-ladder retries always run
        the plain batch pipeline, so a response can carry ``early_exit``
        or ``degradation`` but never both.
        """
        with correlation_scope(request.request_id):
            return self._run_correlated(request, exit_policy)

    def _run_correlated(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        start = perf_counter()
        try:
            pipeline = self._pipeline(None)
            if exit_policy is not None:
                result = pipeline.authenticate_streaming(
                    list(request.recordings), exit_policy
                )
            else:
                result = pipeline.authenticate(list(request.recordings))
            return AuthenticationResponse(
                request_id=request.request_id,
                status=STATUS_OK,
                result=result,
                latency_s=perf_counter() - start,
                beeps_used=result.beeps_used,
                early_exit=result.early_exit,
            )
        except Exception as exc:  # noqa: BLE001 — isolate request failures
            last_error = exc
        if self.degrade_on_error:
            for step in self.policy.steps:
                try:
                    result = self._pipeline(step).authenticate(
                        step.select_recordings(request.recordings)
                    )
                    return AuthenticationResponse(
                        request_id=request.request_id,
                        status=STATUS_DEGRADED,
                        result=result,
                        degradation=step.name,
                        latency_s=perf_counter() - start,
                        beeps_used=result.beeps_used,
                        early_exit=False,
                    )
                except Exception as exc:  # noqa: BLE001
                    last_error = exc
        return AuthenticationResponse(
            request_id=request.request_id,
            status=STATUS_ERROR,
            error=repr(last_error),
            latency_s=perf_counter() - start,
        )


# ----------------------------------------------------------------------
# Process-backend plumbing: the runtime lives in a module global of the
# worker interpreter, installed once by the pool initializer.
# ----------------------------------------------------------------------

_PROCESS_RUNTIME: _WorkerRuntime | None = None


def _init_process_worker(
    bundle: ModelBundle,
    policy: DegradationPolicy,
    degrade_on_error: bool,
) -> None:
    global _PROCESS_RUNTIME
    _PROCESS_RUNTIME = _WorkerRuntime(
        bundle, policy, degrade_on_error, _default_factory
    )


def _process_run(
    request: AuthenticationRequest,
    exit_policy: ExitPolicy | None = None,
    capture: bool = False,
) -> AuthenticationResponse:
    """Serve one request in a worker interpreter, capturing telemetry.

    The request runs against a fresh, empty metrics registry and a
    trace-collecting sink, so the registry snapshot afterwards *is* the
    request's metric delta.  Both ride back to the parent on the
    response (see ``BatchAuthenticator._finalize_response``).  When the
    parent has a capture store installed it asks for ``capture``: the
    request then also runs against a fresh in-memory
    :class:`~repro.obs.CaptureStore`, whose drained captures ride home
    on ``capture_payloads`` the same way the metric delta does.
    """
    assert _PROCESS_RUNTIME is not None, "pool initializer did not run"
    fresh = MetricsRegistry()
    captured: list[PipelineTrace] = []
    previous = set_registry(fresh)
    capture_payloads: tuple = ()
    memory_store = CaptureStore(max_captures=4) if capture else None
    previous_store = (
        set_capture_store(memory_store) if capture else None
    )
    add_sink(captured.append)
    try:
        response = _PROCESS_RUNTIME.run(request, exit_policy)
    finally:
        remove_sink(captured.append)
        if capture:
            set_capture_store(previous_store)
        set_registry(previous)
    if memory_store is not None:
        capture_payloads = tuple(memory_store.drain())
    return replace(
        response,
        metrics_delta=fresh.snapshot(),
        worker_traces=tuple(t.to_dict() for t in captured if t),
        capture_payloads=capture_payloads,
    )


class BatchAuthenticator:
    """Serve batches of authentication requests through a worker pool.

    Args:
        bundle: Frozen enrollment snapshot every worker serves from.
        config: Serving parameters (backend, worker count, batch
            timeout, …); defaults to :class:`~repro.config.ServingConfig`.
        policy: Degradation ladder walked on per-request failure.
        pipeline_factory: Seam for tests to inject faulty pipelines;
            ignored by the ``process`` backend (worker interpreters
            always build real pipelines from the bundle).
        recorder: Flight recorder batches are written into; defaults to
            the process-wide recorder
            (:func:`repro.obs.get_flight_recorder`) resolved per batch.

    Example::

        bundle = ModelBundle.from_pipeline(enrolled_pipeline)
        with BatchAuthenticator(bundle) as server:
            responses = server.authenticate_batch(requests)
        accepted = [r for r in responses if r.ok and r.result.accepted]

    The pool is created lazily on the first batch and torn down by
    :meth:`close` (or the ``with`` block).  One instance must only be
    driven from one thread at a time.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        config: ServingConfig | None = None,
        policy: DegradationPolicy | None = None,
        pipeline_factory: PipelineFactory | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.bundle = bundle
        self.config = config or ServingConfig()
        self.policy = policy or DegradationPolicy()
        self._factory = pipeline_factory or _default_factory
        self._recorder = recorder
        self._closed = False
        if (
            pipeline_factory is not None
            and self.config.backend == "process"
        ):
            raise ValueError(
                "pipeline_factory injection is not supported by the "
                "process backend (workers rebuild from the bundle)"
            )
        self._pool: Executor | None = None
        # Thread backend: one runtime per worker thread (pipelines are
        # not thread-safe — the imager caches per-plane steering tables).
        self._local = threading.local()
        self._serial_runtime: _WorkerRuntime | None = None

    # -- worker-side entry points --------------------------------------

    def _make_runtime(self) -> _WorkerRuntime:
        return _WorkerRuntime(
            self.bundle,
            self.policy,
            self.config.degrade_on_error,
            self._factory,
        )

    def _thread_run(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        runtime = getattr(self._local, "runtime", None)
        if runtime is None:
            runtime = self._make_runtime()
            self._local.runtime = runtime
        return runtime.run(request, exit_policy)

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> Executor | None:
        if self.config.backend == "serial" or self._pool is not None:
            return self._pool
        workers = self.config.resolve_workers()
        if self.config.backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_process_worker,
                initargs=(
                    self.bundle,
                    self.policy,
                    self.config.degrade_on_error,
                ),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Pending work is cancelled; already-running requests are
        abandoned to finish on their own.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    @property
    def alive(self) -> bool:
        """Whether the authenticator can still serve (never closed).

        This is the serving half of a ``/readyz`` probe: readiness is
        typically ``bundle loaded and server.alive``, and flips false
        the moment :meth:`close` runs.
        """
        return not self._closed

    @property
    def recorder(self) -> FlightRecorder:
        """The flight recorder batches are written into."""
        return (
            self._recorder
            if self._recorder is not None
            else get_flight_recorder()
        )

    def __enter__(self) -> "BatchAuthenticator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------

    def authenticate_batch(
        self, requests: list[AuthenticationRequest]
    ) -> list[AuthenticationResponse]:
        """Serve a batch; one response per request, in input order.

        The whole batch shares one ``config.timeout_s`` budget: requests
        still unfinished when it expires come back with status
        ``"timeout"``.  A worker failure never raises here — it becomes
        a structured ``"error"`` response for that request only.
        """
        return self._serve(list(requests), None, "serve.batch")

    def authenticate_streaming(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
    ) -> list[AuthenticationResponse]:
        """Serve a batch through the streaming early-exit path.

        Identical contract to :meth:`authenticate_batch` plus the
        early-exit knob: each request's beeps are imaged and scored
        incrementally and the attempt stops once the running aggregate
        clears ``exit_policy``.  With the policy disabled (the default
        :class:`~repro.config.ExitPolicy`) every decision, score and
        margin is bit-identical to :meth:`authenticate_batch`.
        Degradation-ladder retries always run the batch pipeline, so no
        response carries both ``early_exit`` and ``degradation``.
        """
        policy = exit_policy or ExitPolicy()
        return self._serve(list(requests), policy, "serve.stream")

    def _serve(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None,
        span_name: str,
    ) -> list[AuthenticationResponse]:
        with ensure_trace() as batch_trace, trace(
            span_name,
            backend=self.config.backend,
            num_requests=len(requests),
        ) as span:
            if not requests:
                responses: list[AuthenticationResponse] = []
            elif self.config.backend == "serial":
                responses = self._serve_serial(requests, exit_policy)
            else:
                responses = self._serve_pooled(requests, exit_policy)
            outcomes: dict[str, int] = {}
            for response in responses:
                outcomes[response.status] = (
                    outcomes.get(response.status, 0) + 1
                )
            span.update(**{f"num_{k}": v for k, v in outcomes.items()})
            self._record_batch(
                requests, responses, streaming=exit_policy is not None
            )
        if requests:
            self._record_flight(responses, batch_trace)
        return responses

    def _serve_serial(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
    ) -> list[AuthenticationResponse]:
        if self._serial_runtime is None:
            self._serial_runtime = self._make_runtime()
        deadline = monotonic() + self.config.timeout_s
        responses = []
        for request in requests:
            if monotonic() >= deadline:
                responses.append(self._timeout_response(request))
            else:
                responses.append(
                    self._serial_runtime.run(request, exit_policy)
                )
        return responses

    def _serve_pooled(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
    ) -> list[AuthenticationResponse]:
        pool = self._ensure_pool()
        assert pool is not None
        if self.config.backend == "thread":
            submit = lambda request: pool.submit(
                self._thread_run, request, exit_policy
            )
        else:
            want_capture = get_capture_store() is not None
            submit = lambda request: pool.submit(
                _process_run, request, exit_policy, want_capture
            )
        deadline = monotonic() + self.config.timeout_s
        futures: list[tuple[AuthenticationRequest, Future]] = [
            (request, submit(request)) for request in requests
        ]
        responses = []
        for request, future in futures:
            try:
                responses.append(
                    self._finalize_response(
                        future.result(
                            timeout=max(0.0, deadline - monotonic())
                        )
                    )
                )
            except FuturesTimeoutError:
                future.cancel()
                responses.append(self._timeout_response(request))
            except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
                responses.append(
                    AuthenticationResponse(
                        request_id=request.request_id,
                        status=STATUS_ERROR,
                        error=repr(exc),
                    )
                )
        return responses

    def _finalize_response(
        self, response: AuthenticationResponse
    ) -> AuthenticationResponse:
        """Apply (and strip) a process worker's telemetry piggyback.

        The worker's metric delta is merged into the parent's global
        registry — counters and histograms add, gauges are last-write —
        and its traces are replayed through the parent's sink API, so
        the ``process`` backend reports the same totals as ``serial``
        and ``thread``.  Thread/serial responses carry no piggyback and
        pass through untouched.
        """
        if (
            response.metrics_delta is None
            and not response.worker_traces
            and not response.capture_payloads
        ):
            return response
        if response.metrics_delta is not None and metrics_enabled():
            get_registry().merge(response.metrics_delta)
        for trace_document in response.worker_traces:
            emit_trace(PipelineTrace.from_dict(trace_document))
        store = get_capture_store()
        if store is not None:
            for payload in response.capture_payloads:
                store.record(payload)
        return replace(
            response,
            metrics_delta=None,
            worker_traces=(),
            capture_payloads=(),
        )

    def _timeout_response(
        self, request: AuthenticationRequest
    ) -> AuthenticationResponse:
        return AuthenticationResponse(
            request_id=request.request_id,
            status=STATUS_TIMEOUT,
            error=(
                f"request did not finish inside the batch budget of "
                f"{self.config.timeout_s}s"
            ),
        )

    def _record_batch(
        self,
        requests: list[AuthenticationRequest],
        responses: list[AuthenticationResponse],
        streaming: bool = False,
    ) -> None:
        """Parent-side telemetry: counters, exemplars and audit entries.

        Audit entries are written here — once per response, in the
        parent — rather than inside the workers, so all three backends
        produce exactly one ledger entry per request and the ledger
        file never sees concurrent multi-process appends.  Responses
        arrive in input order, so zipping against the requests recovers
        each response's tenant for the per-tenant counter label and the
        security sentinel's detectors.
        """
        metrics = pipeline_metrics()
        ledger = get_audit_ledger()
        sentinel = get_security_sentinel()
        store = get_capture_store()
        bundle_hash = (
            store.ensure_bundle(self.bundle) if store is not None else None
        )
        for request, response in zip(requests, responses):
            if store is not None:
                # The worker recorded the pipeline-level capture (or
                # shipped it home); the parent owns the bundle and the
                # serving context, so it annotates — and stashes the
                # bundle content-addressed so the capture directory is
                # self-contained for offline replay.
                store.annotate(
                    response.request_id,
                    bundle_hash=bundle_hash,
                    degradation=response.degradation,
                    tenant=request.tenant,
                    backend=self.config.backend,
                )
            if metrics is not None:
                metrics.serve_requests.labels(
                    outcome=response.status,
                    tenant=metrics.tenant_label(request.tenant),
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
                    metrics.stream_beeps_used.observe(
                        float(response.beeps_used)
                    )
            if ledger is not None:
                self._audit_response(ledger, response)
            if sentinel is not None:
                self._sentinel_observe(sentinel, request, response)

    @staticmethod
    def _sentinel_observe(sentinel, request, response) -> None:
        """Feed one decision into the security sentinel's detectors.

        The best (highest) finite SVDD score is what an adaptive
        attacker optimises against the gate, so that is the probing
        signal; identified users enter the fan-out tracker only on
        accepted attempts, keeping spoofer labels out of it.
        """
        result = response.result
        if result is None:
            return
        finite = [float(s) for s in result.scores if math.isfinite(s)]
        sentinel.observe_auth(
            accepted=bool(result.accepted),
            tenant=request.tenant,
            user=str(result.label) if result.accepted else None,
            score=max(finite) if finite else None,
            request_id=response.request_id,
        )

    def _audit_response(self, ledger, response) -> None:
        """Append one response's decision context to the audit ledger."""
        from repro.obs.envinfo import environment_fingerprint

        result = response.result
        if result is not None:
            decision = "accept" if result.accepted else "reject"
        else:
            decision = response.status
        fields: dict = {
            "status": response.status,
            "decision": decision,
            "backend": self.config.backend,
            "environment": environment_fingerprint(),
        }
        if result is not None:
            fields["user"] = str(result.label)
            fields["svdd_scores"] = [float(s) for s in result.scores]
            # NaN marks beeps the SVDD gate rejected; JSON has no NaN.
            fields["svm_margins"] = [
                float(m) if math.isfinite(m) else None
                for m in result.margins
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
        ledger.append("serve", response.request_id, **fields)

    def _record_flight(
        self,
        responses: list[AuthenticationResponse],
        batch_trace: PipelineTrace | None,
    ) -> None:
        """Write the batch into the flight recorder; dump on failure.

        Every response becomes a request record (timed-out/errored
        requests have no worker trace, so they carry the enclosing
        ``serve.batch`` trace as their decision context); timeouts,
        errors, degradations and drift alerts become structured events.
        A batch containing timeouts or errors triggers an automatic
        black-box dump when the recorder has a dump path configured.
        """
        recorder = self.recorder
        batch_document = batch_trace.to_dict() if batch_trace else None
        failed: list[str] = []
        for response in responses:
            trace_document = None
            if response.result is not None and response.result.trace:
                trace_document = response.result.trace.to_dict()
            elif response.status in (STATUS_TIMEOUT, STATUS_ERROR):
                trace_document = batch_document
            recorder.record_request(
                response.request_id,
                response.status,
                latency_s=response.latency_s,
                degradation=response.degradation,
                error=response.error,
                trace=trace_document,
            )
            if response.status == STATUS_TIMEOUT:
                failed.append(response.request_id)
                recorder.record_event(
                    "timeout",
                    request_id=response.request_id,
                    error=response.error,
                    backend=self.config.backend,
                )
            elif response.status == STATUS_ERROR:
                failed.append(response.request_id)
                recorder.record_event(
                    "worker_error",
                    request_id=response.request_id,
                    error=response.error,
                    backend=self.config.backend,
                )
            elif response.degradation is not None:
                recorder.record_event(
                    "degradation",
                    request_id=response.request_id,
                    step=response.degradation,
                )
            elif response.early_exit:
                recorder.record_event(
                    "early_exit",
                    request_id=response.request_id,
                    beeps_used=response.beeps_used,
                )
            if response.result is not None:
                for alert in response.result.drift_alerts:
                    recorder.record_event(
                        "drift_alert",
                        request_id=response.request_id,
                        monitor=alert.monitor,
                        alert_kind=alert.kind,
                        message=alert.message,
                    )
        if failed:
            recorder.auto_dump(
                "batch contained failed requests",
                request_ids=failed,
                backend=self.config.backend,
            )
