"""One drift suite per authenticator, fed only by the outcome fan-out.

Worker pipelines keep no monitoring state: the serving fan-out feeds
every ``ok`` response's per-beep scores and echo SNR to the
authenticator's suite, in response order, so one request sequence
raises the same alerts on every backend and worker count, and
``/drift`` lists them in raise order.
"""

from __future__ import annotations

import json
import urllib.request
from dataclasses import replace

import pytest

from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene
from repro.array.geometry import respeaker_array
from repro.body.subject import SyntheticSubject
from repro.config import MonitoringConfig, ServingConfig
from repro.eval.golden import _record
from repro.obs import MetricsRegistry, ObservabilityServer, set_registry
from repro.serve import (
    STATUS_DEGRADED,
    STATUS_OK,
    AuthenticationRequest,
    BatchAuthenticator,
)
from repro.signal.chirp import LFMChirp

from .test_executor import make_requests, run_guarded

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def drift_bundle(bundle):
    """The golden bundle with a short drift window (8, tests after 4)."""
    monitoring = MonitoringConfig(drift_window=8, drift_min_samples=4)
    return replace(
        bundle, config=replace(bundle.config, monitoring=monitoring)
    )


@pytest.fixture(scope="module")
def sequence():
    """Six 2-beep attempts of the enrolled subject, then six spoofs."""
    scene = AcousticScene(
        array=respeaker_array(),
        noise=NoiseModel(kind="quiet", level_db_spl=30.0),
    )
    chirp = LFMChirp()
    requests = []
    for name, subject_id, seed in (("user", 1, 100), ("spoof", 2, 200)):
        subject = SyntheticSubject(subject_id=subject_id)
        requests += [
            AuthenticationRequest(
                f"{name}-{i}",
                tuple(_record(scene, chirp, subject, 2, seed + i)),
            )
            for i in range(6)
        ]
    return requests


def alert_key(alert):
    return (
        alert.monitor,
        alert.kind,
        alert.observed,
        alert.window,
        alert.request_id,
    )


@pytest.fixture(scope="module")
def served(drift_bundle, sequence):
    """Per backend: (responses, authenticator, drift-alert counter)."""
    runs = {}
    for backend in BACKENDS:
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            config = ServingConfig(backend=backend, max_workers=2)
            with BatchAuthenticator(drift_bundle, config) as server:
                responses = []
                for start in range(0, len(sequence), 4):
                    batch = sequence[start : start + 4]
                    responses += run_guarded(
                        lambda: server.authenticate_batch(batch)
                    )
        finally:
            set_registry(previous)
        family = registry.get("echoimage_drift_alerts_total")
        counted = {
            tuple(sorted(labels.items())): metric.value
            for labels, metric in (family.samples() if family else ())
        }
        runs[backend] = responses, server, counted
    return runs


def test_every_backend_raises_the_same_alerts(served):
    serial_responses, serial_server, serial_counted = served["serial"]
    assert all(r.status == STATUS_OK for r in serial_responses)
    expected = [alert_key(a) for a in serial_server.drift.alerts()]
    assert ("auth.score", "mean_shift") in {key[:2] for key in expected}
    for backend in BACKENDS:
        responses, server, counted = served[backend]
        # The suite takes its parameters from the bundle's config.
        assert (server.drift.window, server.drift.min_samples) == (8, 4)
        raised = server.drift.alerts()
        # The responses carry the alerts their decisions raised, in
        # raise order.
        assert [a for r in responses for a in r.drift_alerts] == raised
        assert [alert_key(a) for a in raised] == expected, backend
        assert counted == serial_counted, backend
    assert sum(serial_counted.values()) == len(expected)


def test_alerts_name_the_request_that_raised_them(served):
    responses, _, _ = served["serial"]
    for response in responses:
        for alert in response.drift_alerts:
            assert alert.request_id == response.request_id


def test_drift_endpoint_lists_alerts_in_raise_order(served):
    _, server, _ = served["thread"]
    endpoint = ObservabilityServer(drift_source=server.drift.alerts).start()
    try:
        with urllib.request.urlopen(endpoint.url("/drift"), timeout=10) as r:
            document = json.loads(r.read().decode("utf-8"))
    finally:
        endpoint.stop()
    assert document["alerts"] == [
        alert.to_dict() for alert in server.drift.alerts()
    ]


def test_degraded_responses_feed_nothing(enrolled, drift_bundle):
    _, attempt = enrolled

    class _AlwaysCrash:
        def authenticate(self, recordings):
            raise RuntimeError("full fidelity down")

    def factory(bundle_arg, config, _):
        if config is None:
            return _AlwaysCrash()
        return bundle_arg.build_pipeline(config)

    config = ServingConfig(backend="serial")
    with BatchAuthenticator(
        drift_bundle, config, pipeline_factory=factory
    ) as server:
        responses = run_guarded(
            lambda: server.authenticate_batch(make_requests(attempt, 2))
        )
    assert all(r.status == STATUS_DEGRADED for r in responses)
    assert all(r.drift_alerts == () for r in responses)
    (monitor,) = server.drift.monitors()
    assert monitor.window_stats()[2] == 0
