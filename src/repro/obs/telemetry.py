"""Domain metrics of the EchoImage pipeline, derived from its traces.

One module owns the metric catalogue so every family has consistent
names and the full table can be documented (and asserted against) in one
place — see the "Metrics & drift monitoring" section of
``docs/ARCHITECTURE.md``.

Pipeline stages never touch the registry: they put the values their
families need on their own spans, and :func:`record_trace` — the one
trace sink :mod:`repro.obs` registers on import — turns every completed
trace into metrics, walking its spans in order.  So a ``process``
serving worker needs to ship nothing but its traces: the parent
re-emits them, and each becomes metrics once, there.  The serving
layer, the enrollment store, the flight recorder and the sentinel
record their own families through :func:`pipeline_metrics`.

The catalogue (all names prefixed ``echoimage_``):

========================================  =========  ==================  =====================================
name                                      type       labels              observes
========================================  =========  ==================  =====================================
``echoimage_auth_attempts_total``         counter    ``result``          authenticate() outcomes (accept/reject)
``echoimage_auth_decisions_total``        counter    ``decision``        per-beep decisions incl. spoof_reject
``echoimage_auth_score``                  histogram  ``mode``            SVDD decision scores (Section V-E)
``echoimage_auth_margin``                 histogram  —                   SVM inter-class vote margin
``echoimage_distance_estimates_total``    counter    ``outcome``         ranging attempts (ok / no_echo)
``echoimage_distance_echo_snr_db``        histogram  —                   body-echo SNR over envelope floor (Eq. 10)
``echoimage_distance_echo_prominence``    gauge      —                   body-echo peak / strongest-peak ratio
``echoimage_distance_user_m``             gauge      —                   last estimated user distance D_p
``echoimage_image_dynamic_range_db``      histogram  —                   acoustic-image max/median pixel range (Eqs. 11-12)
``echoimage_image_band_energy``           gauge      ``band``            per-sub-band summed pixel energy
``echoimage_feature_embedding_norm``      histogram  —                   mean L2 norm of extracted embeddings
``echoimage_drift_alerts_total``          counter    ``monitor``, ``kind``  edge-triggered alerts of the serving drift suite, per monitor
``echoimage_identify_requests_total``     counter    ``outcome``         store identifications (identified/rejected/empty)
``echoimage_identify_candidates``         histogram  —                   prefilter candidate-set sizes (k after clipping)
``echoimage_identify_latency_seconds``    histogram  —                   two-stage identify wall time (prefilter + shard)
``echoimage_identify_shard_refits_total`` counter    ``reason``          per-shard refits triggered by enroll/revoke
``echoimage_serve_requests_total``        counter    ``outcome``, ``tenant``  batch-serving requests (ok/degraded/error/timeout)
``echoimage_serve_degradations_total``    counter    ``step``            degradation-ladder fallbacks taken
``echoimage_serve_request_latency_seconds``  histogram  —                per-request wall time inside the worker pool
``echoimage_flight_dropped_total``        counter    ``ring``            flight-recorder ring evictions (requests/events)
``echoimage_broker_queue_depth``          gauge      —                   requests waiting in the broker's bounded queue
``echoimage_broker_shed_total``           counter    ``reason``, ``tenant``  admissions refused (capacity / slo_burn)
``echoimage_stream_exits_total``          counter    ``stage``           streaming decisions by exit point (early/full)
``echoimage_stream_beeps_used``           histogram  —                   beeps consumed per streaming decision
``echoimage_security_alerts_total``       counter    ``rule``, ``severity``  security-sentinel alerts fired per rule
``echoimage_stage_latency_seconds``       histogram  ``stage``           wall time of the :data:`TIMED_STAGES` spans
========================================  =========  ==================  =====================================

The ``tenant`` label is bounded-cardinality: the first
:data:`TENANT_LABEL_CAP` distinct tenants a registry sees keep their
verbatim names and everything beyond hashes stably into
``bucket-<k>`` via :meth:`PipelineMetrics.tenant_label`, so an
adversary minting tenant ids cannot blow up the Prometheus series
count.

The SLO tracker of :mod:`repro.obs.slo` additionally publishes
``echoimage_slo_*`` gauges (compliance, error-budget remaining, burn
rate) into the same registry; they are derived from the families above
rather than recorded by pipeline stages, so they live outside this
handle bundle.
"""

from __future__ import annotations

import hashlib
import threading

from repro.obs.metrics import MetricFamily, MetricsRegistry, get_registry
from repro.obs.tracer import PipelineTrace

#: Distinct tenants that keep their verbatim name on the ``tenant``
#: metric label; later arrivals hash into ``bucket-<k>``.
TENANT_LABEL_CAP = 12

#: Hash buckets overflow tenants collapse into.
TENANT_HASH_BUCKETS = 8

#: Buckets for SVDD decision scores: symmetric around the accept
#: boundary at 0 (scores are ``R^2 (1+margin) - d^2``, typically |s| < 1).
SCORE_BUCKETS = (
    -1.0, -0.5, -0.2, -0.1, -0.05, -0.02, 0.0,
    0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)

#: Buckets for the SVM vote margin, normalised to [0, 1].
MARGIN_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)

#: Buckets for echo SNR in dB over the envelope floor.
SNR_DB_BUCKETS = (3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0)

#: Buckets for acoustic-image dynamic range in dB.
DYNAMIC_RANGE_DB_BUCKETS = (3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0)

#: Buckets for embedding L2 norms.
NORM_BUCKETS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Buckets for per-request serving latency, in seconds.
SERVE_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Buckets for prefilter candidate-set sizes (powers of two up to the
#: largest k anyone should reasonably configure).
CANDIDATE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Buckets for the two-stage identify wall time: sub-millisecond through
#: tens of milliseconds — far finer than serving latency because the
#: identification path must stay near-flat as the population grows.
IDENTIFY_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Buckets for beeps consumed per streaming decision (attempts are a
#: handful of beeps; the paper uses up to 8).
STREAM_BEEP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Buckets for per-stage wall time: a CNN pass over one small image
#: takes about a millisecond, a paper-grid attempt tens of milliseconds.
STAGE_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: The span names ``echoimage_stage_latency_seconds`` times, and so the
#: only values of its ``stage`` label.
TIMED_STAGES = (
    "authenticate",
    "distance.estimate",
    "imaging.image",
    "features.extract",
    "auth.predict",
)


class PipelineMetrics:
    """The bound metric-family handles of one registry.

    Attributes mirror the catalogue in the module docstring; construction
    registers every family (idempotently), so a freshly swapped-in
    registry exposes the full catalogue after the first pipeline call.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.auth_attempts: MetricFamily = registry.counter(
            "echoimage_auth_attempts_total",
            "Authentication attempts by outcome",
            labels=("result",),
        )
        self.auth_decisions: MetricFamily = registry.counter(
            "echoimage_auth_decisions_total",
            "Per-beep authentication decisions",
            labels=("decision",),
        )
        self.auth_score: MetricFamily = registry.histogram(
            "echoimage_auth_score",
            "SVDD decision scores (positive = inside the user description)",
            labels=("mode",),
            buckets=SCORE_BUCKETS,
        )
        self.auth_margin: MetricFamily = registry.histogram(
            "echoimage_auth_margin",
            "Normalised inter-class vote margin of the n-class SVM",
            buckets=MARGIN_BUCKETS,
        )
        self.distance_estimates: MetricFamily = registry.counter(
            "echoimage_distance_estimates_total",
            "Distance-estimation attempts by outcome",
            labels=("outcome",),
        )
        self.distance_snr_db: MetricFamily = registry.histogram(
            "echoimage_distance_echo_snr_db",
            "Body-echo SNR over the averaged-envelope floor, in dB",
            buckets=SNR_DB_BUCKETS,
        )
        self.distance_prominence: MetricFamily = registry.gauge(
            "echoimage_distance_echo_prominence",
            "Body-echo peak value over the strongest envelope peak",
        )
        self.distance_user_m: MetricFamily = registry.gauge(
            "echoimage_distance_user_m",
            "Last estimated horizontal user-array distance D_p, in metres",
        )
        self.image_dynamic_range_db: MetricFamily = registry.histogram(
            "echoimage_image_dynamic_range_db",
            "Acoustic-image dynamic range (max over median pixel), in dB",
            buckets=DYNAMIC_RANGE_DB_BUCKETS,
        )
        self.image_band_energy: MetricFamily = registry.gauge(
            "echoimage_image_band_energy",
            "Summed per-grid pixel energy of the last imaged sub-band",
            labels=("band",),
        )
        self.feature_norm: MetricFamily = registry.histogram(
            "echoimage_feature_embedding_norm",
            "Mean L2 norm of the extracted feature embeddings",
            buckets=NORM_BUCKETS,
        )
        self.drift_alerts: MetricFamily = registry.counter(
            "echoimage_drift_alerts_total",
            "Edge-triggered drift alerts raised, by monitor and kind",
            labels=("monitor", "kind"),
        )
        self.identify_requests: MetricFamily = registry.counter(
            "echoimage_identify_requests_total",
            "Sharded-store identifications by outcome",
            labels=("outcome",),
        )
        self.identify_candidates: MetricFamily = registry.histogram(
            "echoimage_identify_candidates",
            "Prefilter candidate-set sizes per identification",
            buckets=CANDIDATE_BUCKETS,
        )
        self.identify_latency: MetricFamily = registry.histogram(
            "echoimage_identify_latency_seconds",
            "Two-stage (prefilter + shard) identification wall time",
            buckets=IDENTIFY_LATENCY_BUCKETS,
        )
        self.identify_shard_refits: MetricFamily = registry.counter(
            "echoimage_identify_shard_refits_total",
            "Per-shard classifier refits, by triggering operation",
            labels=("reason",),
        )
        self.serve_requests: MetricFamily = registry.counter(
            "echoimage_serve_requests_total",
            "Batch-serving requests by outcome and tenant",
            labels=("outcome", "tenant"),
        )
        self.serve_degradations: MetricFamily = registry.counter(
            "echoimage_serve_degradations_total",
            "Degradation-ladder fallbacks taken while serving",
            labels=("step",),
        )
        self.serve_request_latency: MetricFamily = registry.histogram(
            "echoimage_serve_request_latency_seconds",
            "Per-request wall time inside the serving worker pool",
            buckets=SERVE_LATENCY_BUCKETS,
        )
        self.flight_dropped: MetricFamily = registry.counter(
            "echoimage_flight_dropped_total",
            "Flight-recorder ring-buffer evictions, by ring",
            labels=("ring",),
        )
        self.broker_queue_depth: MetricFamily = registry.gauge(
            "echoimage_broker_queue_depth",
            "Requests currently waiting in the broker's bounded queue",
        )
        self.broker_shed: MetricFamily = registry.counter(
            "echoimage_broker_shed_total",
            "Requests refused at broker admission, by reason and tenant",
            labels=("reason", "tenant"),
        )
        self.stream_exits: MetricFamily = registry.counter(
            "echoimage_stream_exits_total",
            "Streaming decisions by exit point (early vs full attempt)",
            labels=("stage",),
        )
        self.stream_beeps_used: MetricFamily = registry.histogram(
            "echoimage_stream_beeps_used",
            "Beeps consumed per streaming decision",
            buckets=STREAM_BEEP_BUCKETS,
        )
        self.security_alerts: MetricFamily = registry.counter(
            "echoimage_security_alerts_total",
            "Security-sentinel alerts fired, by rule and severity",
            labels=("rule", "severity"),
        )
        self.stage_latency: MetricFamily = registry.histogram(
            "echoimage_stage_latency_seconds",
            "Wall time of one pipeline stage span, by stage",
            labels=("stage",),
            buckets=STAGE_LATENCY_BUCKETS,
        )
        self._tenant_lock = threading.Lock()
        self._tenant_seen: set[str] = set()

    def tenant_label(self, tenant: str) -> str:
        """The bounded-cardinality ``tenant`` label value for a tenant.

        The first :data:`TENANT_LABEL_CAP` distinct tenants this
        registry's handles see keep their verbatim names; every later
        tenant hashes stably (SHA-1) into one of
        :data:`TENANT_HASH_BUCKETS` ``bucket-<k>`` values, bounding the
        label's cardinality at ``cap + buckets`` no matter how many
        tenant ids traffic invents.
        """
        tenant = str(tenant)
        with self._tenant_lock:
            if tenant in self._tenant_seen:
                return tenant
            if len(self._tenant_seen) < TENANT_LABEL_CAP:
                self._tenant_seen.add(tenant)
                return tenant
        digest = hashlib.sha1(tenant.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % TENANT_HASH_BUCKETS
        return f"bucket-{bucket}"


_BOUND: dict[int, tuple[MetricsRegistry, PipelineMetrics]] = {}


def pipeline_metrics() -> PipelineMetrics:
    """The pipeline metric handles for the current default registry."""
    registry = get_registry()
    key = id(registry)
    bound = _BOUND.get(key)
    if bound is None or bound[0] is not registry:
        bound = (registry, PipelineMetrics(registry))
        _BOUND.clear()  # one registry is live at a time; drop stale refs
        _BOUND[key] = bound
    return bound[1]


def _record_authenticate(metrics: PipelineMetrics, attributes: dict) -> None:
    accepted = attributes.get("accepted")
    if accepted is not None:
        metrics.auth_attempts.labels(
            result="accept" if accepted else "reject"
        ).inc()


def _record_distance(metrics: PipelineMetrics, attributes: dict) -> None:
    outcome = attributes.get("outcome")
    if outcome is None:
        return
    metrics.distance_estimates.labels(outcome=outcome).inc()
    if outcome == "ok":
        metrics.distance_snr_db.observe(attributes["echo_snr_db"])
        metrics.distance_prominence.set(attributes["echo_prominence"])
        metrics.distance_user_m.set(attributes["user_distance_m"])


def _record_image(metrics: PipelineMetrics, attributes: dict) -> None:
    for dynamic_range_db in attributes.get("dynamic_range_db", ()):
        metrics.image_dynamic_range_db.observe(dynamic_range_db)


def _record_band(metrics: PipelineMetrics, attributes: dict) -> None:
    energy = attributes.get("energy")
    if energy is not None:
        metrics.image_band_energy.labels(band=attributes["band"]).set(energy)


def _record_features(metrics: PipelineMetrics, attributes: dict) -> None:
    norm = attributes.get("mean_embedding_norm")
    if norm is not None:
        metrics.feature_norm.observe(norm)


def _record_predict(metrics: PipelineMetrics, attributes: dict) -> None:
    scores = attributes.get("scores")
    if scores is None:
        return
    score_hist = metrics.auth_score.labels(mode=attributes["mode"])
    for score in scores:
        score_hist.observe(score)
    num_accepted = attributes["num_accepted"]
    metrics.auth_decisions.labels(decision="accept").inc(num_accepted)
    metrics.auth_decisions.labels(decision="spoof_reject").inc(
        len(scores) - num_accepted
    )


def _record_svm(metrics: PipelineMetrics, attributes: dict) -> None:
    for margin in attributes.get("margins", ()):
        metrics.auth_margin.observe(margin)


#: Span name -> the recorder of the families read from that span.
_RECORDERS = {
    "authenticate": _record_authenticate,
    "distance.estimate": _record_distance,
    "imaging.image": _record_image,
    "imaging.band": _record_band,
    "features.extract": _record_features,
    "auth.predict": _record_predict,
    "auth.svm": _record_svm,
}


def record_trace(completed: PipelineTrace) -> None:
    """Turn one completed trace into pipeline metrics.

    The spans are walked depth-first, in the order they were opened, so
    counters, histograms and last-write gauges see the values in the
    order the stages produced them.  A span the stage left without its
    values (it raised first) records only its wall time.
    """
    metrics = None
    for span in completed.iter_spans():
        record = _RECORDERS.get(span.name)
        if record is None:
            continue
        if metrics is None:
            metrics = pipeline_metrics()
        record(metrics, span.attributes)
        if span.name in TIMED_STAGES:
            metrics.stage_latency.labels(stage=span.name).observe(
                span.duration_s
            )
