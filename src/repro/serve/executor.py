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

**One drift suite per authenticator.**  Worker pipelines keep no
monitoring state: the authenticator owns its bundle's
:class:`~repro.obs.DriftSuite`, and only the fan-out feeds it, so
every backend and worker count raises the same alerts.

**Captures ride the response.**  With a capture store installed, every
backend's worker returns the answering attempt's capture on
``AuthenticationResponse.capture`` instead of recording it; the
fan-out records it once.  So a request abandoned at the batch deadline
leaves no capture, as it leaves no ledger entry of its own.

**Cross-worker telemetry propagation.**  Pipeline metrics are derived
from completed traces by the parent's trace sinks
(:func:`repro.obs.telemetry.record_trace`).  Serial and thread workers
complete their traces in the parent process, so the sinks see them
directly.  A process worker starts with no sinks (the tracer forgets
them in a forked child): ``_process_run`` collects the request's traces
and ships them home on ``AuthenticationResponse.worker_traces``, and
the parent emits them to its sinks and clears the field.  So every
trace becomes metrics once, in the parent, in response order, and all
three backends report identical metrics.
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
    DriftSuite,
    FlightRecorder,
    PipelineTrace,
    add_sink,
    correlation_scope,
    emit_trace,
    ensure_trace,
    get_capture_store,
    get_flight_recorder,
    remove_sink,
    trace,
)
from repro.obs.capture import collect_captures
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
)

#: Signature of the pipeline-construction seam: ``(bundle, config,
#: unused) -> pipeline``.  Tests inject crashing/hanging pipelines
#: through it; production leaves it at :meth:`ModelBundle.build_pipeline`.
#: Unused third argument: perfbench's ``batched_imaging`` (ROADMAP item 5).
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
        exit_policy: ExitPolicy | None,
        capture: bool,
    ) -> AuthenticationResponse:
        """Serve one request, degrading on failure.

        The whole walk runs inside the request's correlation scope, so
        every span and metric exemplar recorded underneath carries
        ``request.request_id`` — on the process backend the id
        travels with the pickled request, which is what keeps serial,
        thread and process runs identically correlated.

        When ``exit_policy`` is given the full-fidelity attempt runs the
        streaming early-exit path; degradation-ladder retries always run
        the plain batch pipeline, so a response can carry ``early_exit``
        or ``degradation`` but never both.

        With ``capture`` the walk runs inside
        :func:`~repro.obs.capture.collect_captures`, and the capture of
        the attempt that answered (only successful attempts build one)
        comes back on the response.
        """
        with correlation_scope(request.request_id):
            if not capture:
                return self._run_correlated(request, exit_policy)
            with collect_captures() as captured:
                response = self._run_correlated(request, exit_policy)
        if not captured:
            return response
        return replace(response, capture=captured[-1])

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
    exit_policy: ExitPolicy | None,
    capture: bool,
) -> AuthenticationResponse:
    """Serve one request in a worker interpreter, collecting its traces.

    The traces completed while serving ride home on
    ``worker_traces`` (see ``BatchAuthenticator._finalize_response``),
    and the request's capture, when asked for, on the response itself.
    """
    assert _PROCESS_RUNTIME is not None, "pool initializer did not run"
    traces: list[PipelineTrace] = []
    add_sink(traces.append)
    try:
        response = _PROCESS_RUNTIME.run(request, exit_policy, capture)
    finally:
        remove_sink(traces.append)
    return replace(response, worker_traces=tuple(t for t in traces if t))


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

    Attributes:
        drift: The :class:`~repro.obs.DriftSuite` of this
            authenticator's served traffic (``/drift`` serves
            ``drift.alerts``).

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
        monitoring = bundle.config.monitoring
        self.drift = DriftSuite(
            window=monitoring.drift_window,
            min_samples=monitoring.drift_min_samples,
            mean_sigmas=monitoring.drift_mean_sigmas,
            variance_ratio=monitoring.drift_variance_ratio,
        )
        # ``auth.score`` is judged against the enrollment scores;
        # ``distance.snr_db`` self-baselines from the first served
        # attempts (SNR is never measured at enrollment).
        self.drift.monitor("auth.score").baseline = bundle.score_baseline
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
        exit_policy: ExitPolicy | None,
        capture: bool,
    ) -> AuthenticationResponse:
        runtime = getattr(self._local, "runtime", None)
        if runtime is None:
            runtime = self._make_runtime()
            self._local.runtime = runtime
        return runtime.run(request, exit_policy, capture)

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
        and is recorded on their captures.
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
        capture = get_capture_store() is not None
        with ensure_trace() as batch_trace, trace(
            span_name,
            backend=self.config.backend,
            num_requests=len(requests),
        ) as span:
            if not requests:
                responses: list[AuthenticationResponse] = []
            elif self.config.backend == "serial":
                responses = self._serve_serial(requests, exit_policy, capture)
            else:
                responses = self._serve_pooled(requests, exit_policy, capture)
            outcomes: dict[str, int] = {}
            for response in responses:
                outcomes[response.status] = (
                    outcomes.get(response.status, 0) + 1
                )
            span.update(**{f"num_{k}": v for k, v in outcomes.items()})
        return record_outcomes(
            requests,
            responses,
            backend=self.config.backend,
            streaming=exit_policy is not None,
            via=via,
            recorder=self.recorder,
            bundle=self.bundle,
            batch_trace=batch_trace,
            drift=self.drift,
        )

    def _serve_serial(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None,
        capture: bool,
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
                    self._serial_runtime.run(request, exit_policy, capture)
                )
        return responses

    def _serve_pooled(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None,
        capture: bool,
    ) -> list[AuthenticationResponse]:
        pool = self._ensure_pool()
        assert pool is not None
        run = (
            self._thread_run
            if self.config.backend == "thread"
            else _process_run
        )
        deadline = monotonic() + self.config.timeout_s
        futures: list[tuple[AuthenticationRequest, Future]] = [
            (request, pool.submit(run, request, exit_policy, capture))
            for request in requests
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
        """Emit (and clear) a process worker's traces.

        The parent's sinks — the metrics sink among them — see each
        worker trace exactly as they would have seen it had the attempt
        run in-process.  Thread responses carry none and pass through
        untouched.
        """
        if not response.worker_traces:
            return response
        for worker_trace in response.worker_traces:
            emit_trace(worker_trace)
        return replace(response, worker_traces=())

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
