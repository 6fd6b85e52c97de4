"""Pipeline observability: span tracing, profiling, latency reports.

The subsystem has three layers:

* :mod:`repro.obs.tracer` — the :func:`trace` span context manager and
  the per-attempt :class:`PipelineTrace` every pipeline stage records
  into;
* :mod:`repro.obs.correlation` — the ambient request-correlation scope
  (:func:`correlation_scope` / :func:`current_request_id`): one
  ``request_id`` stamped on every span, metric exemplar, drift alert,
  flight record and audit-ledger entry a request touches;
* :mod:`repro.obs.report` — :func:`aggregate` plus text/JSON renderers
  turning traces into a stage-latency table (count, mean, p50, p95,
  bytes);
* :mod:`repro.obs.profiler` — :class:`Profiler`, a sink that collects
  every trace completed while installed;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket histograms with Prometheus/JSON exposition (the
  domain metrics recorded by the pipeline live in
  :mod:`repro.core.telemetry`);
* :mod:`repro.obs.drift` — sliding-window :class:`DriftMonitor` raising
  structured :class:`DriftAlert` objects when score or signal-quality
  distributions shift away from their registration-time baseline;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, a bounded ring
  buffer of recent request traces and structured events (timeouts,
  degradations, drift alerts) that dumps a versioned JSON black-box
  file on demand or on batch failure;
* :mod:`repro.obs.audit` — :class:`AuditLedger`, the append-only,
  hash-chained decision ledger (tamper-evident via
  :func:`verify_chain`), queryable by request id / user / decision /
  time range;
* :mod:`repro.obs.sentinel` — :class:`SecuritySentinel` /
  :class:`AlertEngine`: streaming attack-pattern detectors (reject-rate
  spikes, near-threshold probing, velocity bursts, tenant fan-out,
  shard score drift) raising edge-triggered :class:`SecurityAlert`
  objects served by ``/alerts``;
* :mod:`repro.obs.slo` — :class:`SLOConfig` / :class:`SLOTracker`:
  declarative latency and availability objectives with error-budget and
  burn-rate accounting derived from the serving metrics;
* :mod:`repro.obs.server` — :class:`ObservabilityServer`, a
  dependency-free ``http.server`` endpoint exposing ``/metrics``,
  ``/healthz``, ``/readyz``, ``/traces``, ``/drift``, ``/audit``,
  ``/slo`` and ``/alerts`` live;
* :mod:`repro.obs.envinfo` — :func:`environment_fingerprint`, the
  commit/interpreter/numpy/CPU/``REPRO_SCALE`` stamp carried by every
  JSON artifact (metrics dumps, stage reports, flight black boxes and
  the ``BENCH_*.json`` records of :mod:`repro.bench`);
* :mod:`repro.obs.capture` / :mod:`repro.obs.replay` — opt-in
  deterministic record-and-replay: :class:`CaptureStore` retains, per
  request, the inputs and resolved config actually used plus per-stage
  output digests (``Span.record_digest``), and
  :func:`repro.obs.replay.replay_request` re-executes a capture and
  diffs it stage by stage (``identical`` / ``divergent`` /
  ``environment-mismatch``) — served live at ``/capture`` and rendered
  by ``scripts/replay_request.py``.

The instrumented stage names emitted by the EchoImage pipeline are listed
in :data:`STAGES`; the metric names are tabulated in
``docs/ARCHITECTURE.md``.
"""

# Import order matters here: repro.obs.audit pulls in repro.io, whose
# modules import tracing/correlation helpers back out of this package —
# everything they need must already be bound when the audit import runs.
from repro.obs.correlation import (
    correlation_scope,
    current_request_id,
    new_request_id,
)
from repro.obs.envinfo import environment_fingerprint
from repro.obs.metrics import (
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    set_metrics_enabled,
    set_registry,
)
from repro.obs.tracer import (
    NULL_SPAN,
    PipelineTrace,
    Span,
    add_sink,
    current_trace,
    emit_trace,
    ensure_trace,
    remove_sink,
    set_tracing,
    start_trace,
    trace,
    tracing_enabled,
)
from repro.obs.drift import (
    DriftAlert,
    DriftBaseline,
    DriftMonitor,
    DriftSuite,
)
from repro.obs.flight import (
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.obs.profiler import Profiler
from repro.obs.report import (
    StageStats,
    aggregate,
    percentile,
    render_json,
    render_text,
    stats_from_json,
)
from repro.obs.audit import (
    AuditLedger,
    ChainError,
    ChainVerification,
    get_audit_ledger,
    set_audit_ledger,
    verify_chain,
)

# repro.obs.capture sits on the repro.io.storage envelope substrate,
# which the audit import above has already fully initialised.  The
# replay side (repro.obs.replay) is *not* re-exported here: it builds
# pipelines from serving bundles, and importing repro.serve from this
# package would cycle — import repro.obs.replay directly.
from repro.obs.capture import (
    CaptureStore,
    RequestCapture,
    StageCollector,
    bundle_content_hash,
    get_capture_store,
    set_capture_store,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.server import ObservabilityServer

# repro.obs.sentinel imports repro.config, which (via the repro package
# __init__) can re-enter this package — it must come last, when every
# name above is already bound.
from repro.obs.sentinel import (
    AlertEngine,
    SecurityAlert,
    SecuritySentinel,
    get_security_sentinel,
    set_security_sentinel,
)

#: Span names emitted by the instrumented EchoImage pipeline.
STAGES = (
    "authenticate",
    "enroll",
    "collect_session",
    "distance.estimate",
    "distance.envelope",
    "imaging.image",
    "imaging.band",
    "features.extract",
    "auth.predict",
    "auth.svdd",
    "auth.svm",
    "serve.batch",
    "serve.stream",
    "stream.beep",
    "broker.enqueue",
    "bench.case",
)

__all__ = [
    "SCHEMA_VERSION",
    "environment_fingerprint",
    "correlation_scope",
    "current_request_id",
    "new_request_id",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "DriftAlert",
    "DriftBaseline",
    "DriftMonitor",
    "DriftSuite",
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "AuditLedger",
    "ChainError",
    "ChainVerification",
    "get_audit_ledger",
    "set_audit_ledger",
    "verify_chain",
    "CaptureStore",
    "RequestCapture",
    "StageCollector",
    "bundle_content_hash",
    "get_capture_store",
    "set_capture_store",
    "SLOConfig",
    "SLOTracker",
    "ObservabilityServer",
    "AlertEngine",
    "SecurityAlert",
    "SecuritySentinel",
    "get_security_sentinel",
    "set_security_sentinel",
    "PipelineTrace",
    "Span",
    "NULL_SPAN",
    "trace",
    "start_trace",
    "ensure_trace",
    "emit_trace",
    "current_trace",
    "set_tracing",
    "tracing_enabled",
    "add_sink",
    "remove_sink",
    "Profiler",
    "StageStats",
    "aggregate",
    "percentile",
    "render_text",
    "render_json",
    "stats_from_json",
    "STAGES",
]
