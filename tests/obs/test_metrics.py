"""Metrics registry: primitives, exposition and pipeline integration."""

import json
import threading

import numpy as np
import pytest

from repro import EchoImagePipeline
from repro.config import (
    AuthenticationConfig,
    EchoImageConfig,
    ImagingConfig,
)
from repro.obs import (
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(MetricError):
            Counter().inc(-1)

    def test_threaded_increments_are_exact(self):
        c = Counter()

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(2.0)
        g.inc(0.5)
        g.dec(1.0)
        assert g.value == 1.5


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        h = Histogram((1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(v)
        # le=1 catches 0.5 and the boundary 1.0; le=2 catches 1.5 and 2.0.
        assert h.bucket_counts() == (2, 2, 1)
        assert h.cumulative_counts() == (2, 4, 5)
        assert h.count == 5
        assert h.sum == pytest.approx(104.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(MetricError):
            Histogram(())
        with pytest.raises(MetricError):
            Histogram((2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram((1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram((float("inf"),))

    def test_explicit_inf_bound_is_folded_into_implicit(self):
        h = Histogram((1.0, float("inf")))
        assert h.bounds == (1.0,)
        h.observe(5.0)
        assert h.bucket_counts() == (0, 1)


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        assert reg.counter("a_total").value == 1.0

    def test_conflicting_reregistration_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(MetricError):
            reg.gauge("a_total")
        reg.counter("b_total", labels=("x",))
        with pytest.raises(MetricError):
            reg.counter("b_total", labels=("y",))
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=(3.0,))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("0bad")
        with pytest.raises(MetricError):
            reg.counter("ok", labels=("has space",))
        with pytest.raises(MetricError):
            reg.counter("ok", labels=("__reserved",))

    def test_labelled_family_requires_labels_call(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", labels=("result",))
        with pytest.raises(MetricError):
            fam.inc()
        with pytest.raises(MetricError):
            fam.labels(wrong="x")
        fam.labels(result="accept").inc(3)
        assert fam.labels(result="accept").value == 3.0

    def test_reset_zeroes_but_keeps_registration(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(5)
        reg.reset()
        assert reg.get("a_total") is not None
        assert reg.counter("a_total").value == 0.0

    def test_prometheus_golden(self):
        reg = MetricsRegistry()
        attempts = reg.counter(
            "attempts_total", "Attempts by result", labels=("result",)
        )
        attempts.labels(result="accept").inc(2)
        attempts.labels(result="reject").inc()
        reg.gauge("distance_m", "Last distance").set(0.6)
        scores = reg.histogram("score", "Scores", buckets=(0.0, 0.5))
        for v in (-0.25, 0.5, 2.0):
            scores.observe(v)
        reg.counter("never_touched_total", "Registered, never observed")

        assert reg.render_prometheus() == (
            "# HELP attempts_total Attempts by result\n"
            "# TYPE attempts_total counter\n"
            'attempts_total{result="accept"} 2\n'
            'attempts_total{result="reject"} 1\n'
            "# HELP distance_m Last distance\n"
            "# TYPE distance_m gauge\n"
            "distance_m 0.6\n"
            "# HELP score Scores\n"
            "# TYPE score histogram\n"
            'score_bucket{le="0"} 1\n'
            'score_bucket{le="0.5"} 2\n'
            'score_bucket{le="+Inf"} 3\n'
            "score_sum 2.25\n"
            "score_count 3\n"
            "# HELP never_touched_total Registered, never observed\n"
            "# TYPE never_touched_total counter\n"
        )

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("x",)).labels(x='a"b\\c\nd').inc()
        assert (
            'c_total{x="a\\"b\\\\c\\nd"} 1' in reg.render_prometheus()
        )

    def test_json_export_is_versioned(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help").inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        data = json.loads(reg.to_json())
        assert data["schema"] == SCHEMA_VERSION
        by_name = {m["name"]: m for m in data["metrics"]}
        assert by_name["a_total"]["samples"][0]["value"] == 1.0
        hist = by_name["h"]
        assert hist["buckets"] == [1.0]
        assert hist["samples"][0]["bucket_counts"] == [1, 0]
        assert hist["samples"][0]["count"] == 1


class TestDefaultRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


#: Metric families a real authenticate() run must populate.
EXPECTED_POPULATED = (
    "echoimage_auth_attempts_total",
    "echoimage_auth_decisions_total",
    "echoimage_auth_score",
    "echoimage_distance_estimates_total",
    "echoimage_distance_echo_snr_db",
    "echoimage_distance_user_m",
    "echoimage_image_dynamic_range_db",
    "echoimage_image_band_energy",
    "echoimage_feature_embedding_norm",
)


class TestPipelineIntegration:
    def test_authenticate_populates_expected_metrics(
        self, quiet_scene, chirp, subject
    ):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            pipeline = EchoImagePipeline(
                config=EchoImageConfig(
                    imaging=ImagingConfig(grid_resolution=24),
                    auth=AuthenticationConfig(svdd_margin=0.3),
                )
            )
            rng = np.random.default_rng(0)
            pipeline.enroll_user(
                quiet_scene.record_beeps(
                    chirp, subject.beep_clouds(0.7, 12, rng), rng
                )
            )
            num_beeps = 3
            result = pipeline.authenticate(
                quiet_scene.record_beeps(
                    chirp, subject.beep_clouds(0.7, num_beeps, rng), rng
                )
            )
        finally:
            set_registry(previous)

        for name in EXPECTED_POPULATED:
            family = registry.get(name)
            assert family is not None, f"missing metric {name}"
            assert family.samples(), f"metric {name} never observed"

        outcome = "accept" if result.accepted else "reject"
        attempts = registry.get("echoimage_auth_attempts_total")
        assert attempts.labels(result=outcome).value == 1.0
        # One SVDD score per attempt beep (enrollment scoring goes
        # through decision_function, which is not instrumented).
        scores = registry.get("echoimage_auth_score")
        assert scores.labels(mode="svdd").count == num_beeps
        assert (
            registry.get("echoimage_distance_estimates_total")
            .labels(outcome="ok")
            .value
            == 2.0
        )
        assert registry.get("echoimage_distance_user_m").value > 0.0


def parse_prometheus(text: str) -> dict:
    """Parse the text exposition into {family: {"type", "samples"}}.

    Samples map ``(metric_name, labels_tuple) -> float``.  This is a
    deliberately independent reimplementation of the format so the
    conformance test round-trips through parsing, not string equality.
    """
    import re

    families: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            current = families.setdefault(name, {"type": kind, "samples": {}})
            continue
        if line.startswith("#") or not line.strip():
            continue
        match = re.fullmatch(r"([a-zA-Z_:][\w:]*)(?:\{(.*)\})? (\S+)", line)
        assert match, f"unparseable sample line: {line!r}"
        name, label_blob, value = match.groups()
        labels = ()
        if label_blob:
            labels = tuple(
                re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', label_blob)
            )
        assert current is not None, f"sample before any # TYPE: {line!r}"
        current["samples"][(name, labels)] = float(value)
    return families


class TestPrometheusExpositionConformance:
    """Histogram exposition obeys the Prometheus text-format contract."""

    def build(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "lat_seconds", "latency", buckets=(0.1, 0.5, 2.0),
            labels=("backend",),
        )
        for v in (0.05, 0.1, 0.3, 1.9, 7.7):
            hist.labels(backend="serial").observe(v)
        return reg, hist.labels(backend="serial")

    def test_inf_bucket_present_and_equals_count(self):
        reg, child = self.build()
        families = parse_prometheus(reg.render_prometheus())
        family = families["lat_seconds"]
        assert family["type"] == "histogram"
        samples = family["samples"]
        inf_key = (
            "lat_seconds_bucket", (("backend", "serial"), ("le", "+Inf"))
        )
        assert samples[inf_key] == 5
        assert samples[("lat_seconds_count", (("backend", "serial"),))] == 5

    def test_bucket_counts_are_cumulative_and_monotonic(self):
        reg, child = self.build()
        samples = parse_prometheus(reg.render_prometheus())[
            "lat_seconds"
        ]["samples"]
        buckets = [
            (dict(labels)["le"], value)
            for (name, labels), value in samples.items()
            if name == "lat_seconds_bucket"
        ]
        # Exposition order: ascending bounds, +Inf last.
        assert [le for le, _ in buckets] == ["0.1", "0.5", "2", "+Inf"]
        counts = [value for _, value in buckets]
        assert counts == [2, 3, 4, 5]  # le=0.1 includes the boundary
        assert counts == sorted(counts)

    def test_sum_and_count_round_trip(self):
        reg, child = self.build()
        samples = parse_prometheus(reg.render_prometheus())[
            "lat_seconds"
        ]["samples"]
        assert samples[
            ("lat_seconds_sum", (("backend", "serial"),))
        ] == pytest.approx(child.sum)
        assert samples[
            ("lat_seconds_count", (("backend", "serial"),))
        ] == child.count

    def test_parsed_exposition_matches_json_export(self):
        reg, child = self.build()
        samples = parse_prometheus(reg.render_prometheus())[
            "lat_seconds"
        ]["samples"]
        (sample,) = json.loads(reg.to_json())["metrics"][0]["samples"]
        cumulative = np.cumsum(sample["bucket_counts"]).tolist()
        parsed = [
            value
            for (name, labels), value in samples.items()
            if name == "lat_seconds_bucket"
        ]
        assert parsed == cumulative


class TestDriftAlertCounter:
    def test_edge_triggered_alerts_are_counted_by_monitor_and_kind(self):
        from repro.acoustics.scene import BeepRecording
        from repro.core.distance import DistanceEstimate
        from repro.core.pipeline import AuthenticationResult
        from repro.obs import DriftSuite, FlightRecorder
        from repro.serve import (
            STATUS_OK,
            AuthenticationRequest,
            AuthenticationResponse,
        )
        from repro.serve.outcomes import record_outcomes

        distance = DistanceEstimate(
            slant_distance_m=0.7,
            user_distance_m=0.6,
            echo_delay_s=0.004,
            direct_delay_s=0.001,
            averaged_envelope=np.zeros(8),
            max_set=(),
            echo_snr_db=30.0,
        )
        result = AuthenticationResult(
            label="user",
            accepted=True,
            distance=distance,
            per_beep_labels=("user",),
            scores=(5.0,),
        )
        recording = BeepRecording(
            samples=np.zeros((2, 16)), sample_rate=16000.0, emit_index=0
        )
        suite = DriftSuite(window=8, min_samples=4)
        suite.monitor("auth.score").freeze_baseline(
            [0.0, 0.01, -0.01, 0.005]
        )
        recorder = FlightRecorder()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            alerts = []
            for i in range(6):
                request = AuthenticationRequest(f"req-{i}", (recording,))
                response = AuthenticationResponse(
                    request.request_id, STATUS_OK, result=result
                )
                (resolved,) = record_outcomes(
                    [request], [response], recorder=recorder, drift=suite
                )
                alerts.extend(resolved.drift_alerts)
        finally:
            set_registry(previous)

        assert alerts, "shifted scores must raise a drift alert"
        assert alerts == suite.alerts()
        events = recorder.events(kind="drift_alert")
        assert [e["request_id"] for e in events] == [
            a.request_id for a in alerts
        ]
        family = registry.get("echoimage_drift_alerts_total")
        assert family is not None
        for alert in alerts:
            assert (
                family.labels(monitor=alert.monitor, kind=alert.kind).value
                >= 1.0
            )
        # Edge-triggered: one sustained shift fires once, not per sample.
        assert (
            family.labels(monitor="auth.score", kind="mean_shift").value
            == 1.0
        )


class TestHistogramQuantiles:
    def test_quantile_interpolates_within_buckets(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 2.5, 3.5):
            h.observe(value)
        # Ranks follow repro.obs.report.percentile: q/100 * (count-1).
        # The boundless first and +Inf buckets clamp to finite bounds.
        assert h.quantile(0.0) == pytest.approx(1.0)
        # Rank 3 is the 2nd of 2 observations in (2, 4]: midway -> 3.0.
        assert h.quantile(100.0) == pytest.approx(3.0)
        # Median rank 1.5 sits halfway through the (1, 2] bucket.
        assert h.quantile(50.0) == pytest.approx(1.5)

    def test_quantile_of_empty_histogram_is_none(self):
        assert Histogram().quantile(50.0) is None

    def test_to_dict_exposes_estimated_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("x_seconds", "d", buckets=(0.1, 1.0))
        for _ in range(100):
            h.observe(0.05)
        sample = registry.to_dict()["metrics"][0]["samples"][0]
        assert set(sample["quantiles"]) == {"p50", "p95", "p99"}
        assert 0.0 < sample["quantiles"]["p99"] <= 0.1

    def test_estimate_count_le_is_exact_on_bucket_bounds(self):
        h = Histogram(buckets=(0.25, 1.0))
        for value in (0.1, 0.2, 0.5, 2.0):
            h.observe(value)
        assert h.estimate_count_le(0.25) == 2.0
        assert h.estimate_count_le(1.0) == 3.0


class TestExemplars:
    def test_exemplar_is_retained_last_write_wins(self):
        h = Histogram()
        h.observe(0.1, exemplar={"request_id": "req-a", "value": 0.1})
        h.observe(0.2, exemplar={"request_id": "req-b", "value": 0.2})
        h.observe(0.3)  # exemplar-less observations keep the last one
        assert h.exemplar == {"request_id": "req-b", "value": 0.2}

    def test_exemplar_rides_to_dict_but_not_prometheus_text(self):
        registry = MetricsRegistry()
        registry.histogram("x_seconds", "d").labels().observe(
            0.1, exemplar={"request_id": "req-a", "value": 0.1}
        )
        sample = registry.to_dict()["metrics"][0]["samples"][0]
        assert sample["exemplar"]["request_id"] == "req-a"
        # The text exposition stays byte-stable: no exemplar syntax.
        assert "req-a" not in registry.render_prometheus()
