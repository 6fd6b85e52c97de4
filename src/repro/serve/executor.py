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
the :mod:`~repro.serve.degradation` ladder before giving up.  Every
batch runs inside a ``serve.batch`` (or ``serve.stream``) trace span;
once it is settled, :func:`repro.serve.outcomes.record_outcomes` feeds
each response to the metrics, capture store, audit ledger, sentinel and
flight recorder, in the parent process.

**Cross-worker telemetry propagation.**  Serial and thread workers
record pipeline metrics, traces and captures straight into the parent's
global registry, sinks and capture store.  Process workers cannot —
their increments land in the worker interpreter and would be silently
lost — so ``_process_run`` serves each request against a fresh
registry, a trace-collecting sink and (when the parent captures) an
in-memory capture store, and ships what they collected home as the
response's one :class:`~repro.serve.requests.WorkerTelemetry` payload.
The parent merges the metric delta into its registry, replays the
traces through the sink API and records the captures into its store,
then strips the payload, making all three backends report identical
totals.
"""

from __future__ import annotations

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
from repro.obs import (
    CaptureStore,
    FlightRecorder,
    MetricsRegistry,
    PipelineTrace,
    add_sink,
    correlation_scope,
    emit_trace,
    ensure_trace,
    get_capture_store,
    get_flight_recorder,
    get_registry,
    metrics_enabled,
    remove_sink,
    set_capture_store,
    set_registry,
    trace,
)
from repro.serve.bundle import ModelBundle
from repro.serve.degradation import DegradationPolicy, DegradationStep
from repro.serve.outcomes import record_outcomes
from repro.serve.requests import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    AuthenticationResponse,
    WorkerTelemetry,
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
        factory: PipelineFactory,
    ) -> None:
        self.bundle = bundle
        self.policy = policy
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
    bundle: ModelBundle, policy: DegradationPolicy
) -> None:
    global _PROCESS_RUNTIME
    _PROCESS_RUNTIME = _WorkerRuntime(bundle, policy, _default_factory)


def _process_run(
    request: AuthenticationRequest,
    exit_policy: ExitPolicy | None = None,
    capture: bool = False,
) -> AuthenticationResponse:
    """Serve one request in a worker interpreter, capturing telemetry.

    The request runs against a fresh, empty metrics registry, a
    trace-collecting sink and — when the parent has a capture store
    installed and asks for ``capture`` — a fresh in-memory
    :class:`~repro.obs.CaptureStore`.  The registry snapshot afterwards
    *is* the request's metric delta; it rides home with the completed
    traces and the drained captures as the response's one
    :class:`~repro.serve.requests.WorkerTelemetry` payload (see
    ``BatchAuthenticator._finalize_response``).
    """
    assert _PROCESS_RUNTIME is not None, "pool initializer did not run"
    fresh = MetricsRegistry()
    traces: list[PipelineTrace] = []
    store = CaptureStore(max_captures=4) if capture else None
    previous = set_registry(fresh)
    previous_store = set_capture_store(store)
    add_sink(traces.append)
    try:
        response = _PROCESS_RUNTIME.run(request, exit_policy)
    finally:
        remove_sink(traces.append)
        set_capture_store(previous_store)
        set_registry(previous)
    return replace(
        response,
        telemetry=WorkerTelemetry(
            metrics=fresh.snapshot(),
            traces=tuple(t for t in traces if t),
            captures=tuple(store.drain()) if store is not None else (),
        ),
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
        return _WorkerRuntime(self.bundle, self.policy, self._factory)

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
                initargs=(self.bundle, self.policy),
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
        self,
        requests: list[AuthenticationRequest],
        *,
        via: str | None = None,
    ) -> list[AuthenticationResponse]:
        """Serve a batch; one response per request, in input order.

        The whole batch shares one ``config.timeout_s`` budget: requests
        still unfinished when it expires come back with status
        ``"timeout"``.  A worker failure never raises here — it becomes
        a structured ``"error"`` response for that request only.
        ``via`` names how the requests entered the system (the
        :class:`~repro.serve.broker.RequestBroker` passes ``"broker"``)
        and is stamped on their captures.
        """
        return self._serve(list(requests), None, "serve.batch", via)

    def authenticate_streaming(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
        *,
        via: str | None = None,
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
        return self._serve(list(requests), policy, "serve.stream", via)

    def _serve(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None,
        span_name: str,
        via: str | None,
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
        record_outcomes(
            requests,
            responses,
            backend=self.config.backend,
            streaming=exit_policy is not None,
            via=via,
            recorder=self.recorder,
            bundle=self.bundle,
            batch_trace=batch_trace,
        )
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
        """Apply (and strip) a process worker's telemetry payload.

        The worker's metric delta is merged into the parent's global
        registry — counters and histograms add, gauges are last-write —
        its traces are replayed through the parent's sink API and its
        captures are recorded into the parent's capture store, so the
        ``process`` backend reports the same totals as ``serial`` and
        ``thread``.  Thread/serial responses carry no payload and pass
        through untouched.
        """
        telemetry = response.telemetry
        if telemetry is None:
            return response
        if metrics_enabled():
            get_registry().merge(telemetry.metrics)
        for worker_trace in telemetry.traces:
            emit_trace(worker_trace)
        store = get_capture_store()
        if store is not None:
            for capture in telemetry.captures:
                store.record(capture)
        return replace(response, telemetry=None)

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
