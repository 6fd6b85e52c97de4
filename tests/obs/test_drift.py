"""Drift monitors: baselines, triggers, edge semantics and pipeline use."""

import sys
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
    DriftBaseline,
    DriftMonitor,
    DriftSuite,
)


def make_monitor(**overrides):
    kwargs = dict(window=16, min_samples=8, mean_sigmas=4.0,
                  variance_ratio=6.0)
    kwargs.update(overrides)
    return DriftMonitor("test", **kwargs)


class TestBaseline:
    def test_from_values(self):
        base = DriftBaseline.from_values([1.0, 2.0, 3.0])
        assert base.mean == pytest.approx(2.0)
        assert base.std == pytest.approx(1.0)
        assert base.count == 3

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            DriftBaseline.from_values([1.0])

    def test_to_dict(self):
        base = DriftBaseline.from_values([0.0, 1.0])
        assert base.to_dict() == {
            "mean": 0.5, "std": base.std, "count": 2,
        }


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_monitor(window=1)
        with pytest.raises(ValueError):
            make_monitor(min_samples=1)
        with pytest.raises(ValueError):
            make_monitor(min_samples=99)
        with pytest.raises(ValueError):
            make_monitor(mean_sigmas=0.0)
        with pytest.raises(ValueError):
            make_monitor(variance_ratio=1.0)


class TestTriggering:
    def test_stable_stream_stays_silent(self):
        rng = np.random.default_rng(0)
        monitor = make_monitor()
        monitor.freeze_baseline(rng.normal(1.0, 0.2, size=200))
        for value in rng.normal(1.0, 0.2, size=100):
            assert monitor.observe(float(value)) == []
        assert monitor.alerts == []

    def test_mean_shift_fires(self):
        rng = np.random.default_rng(1)
        monitor = make_monitor()
        monitor.freeze_baseline(rng.normal(1.0, 0.2, size=200))
        alerts = []
        for value in rng.normal(3.0, 0.2, size=16):
            alerts.extend(monitor.observe(float(value)))
        kinds = {a.kind for a in alerts}
        assert "mean_shift" in kinds
        first = next(a for a in alerts if a.kind == "mean_shift")
        assert first.monitor == "test"
        assert first.observed > first.expected

    def test_variance_shift_fires(self):
        rng = np.random.default_rng(2)
        monitor = make_monitor()
        monitor.freeze_baseline(rng.normal(0.0, 0.1, size=400))
        # Same mean, 10x the spread -> variance ratio ~100 >> 6.  (The
        # window mean may also wobble past the z-test limit; the variance
        # alert is what this test pins down.)
        alerts = []
        for value in rng.normal(0.0, 1.0, size=16):
            alerts.extend(monitor.observe(float(value)))
        assert any(a.kind == "variance_shift" for a in alerts)
        (ratio_alert,) = [a for a in alerts if a.kind == "variance_shift"]
        assert ratio_alert.observed > ratio_alert.threshold

    def test_no_tests_before_min_samples(self):
        monitor = make_monitor(min_samples=8)
        monitor.freeze_baseline([0.0, 0.1, -0.1, 0.05, -0.05])
        for _ in range(7):
            assert monitor.observe(100.0) == []
        assert monitor.observe(100.0) != []

    def test_edge_trigger_fires_once_and_rearms(self):
        rng = np.random.default_rng(3)
        monitor = make_monitor(min_samples=4, window=4)
        monitor.freeze_baseline(rng.normal(0.0, 0.5, size=200))
        fired = []
        for value in [5.0] * 12:
            fired.extend(monitor.observe(value))
        assert len([a for a in fired if a.kind == "mean_shift"]) == 1
        # Recover, then shift again: the alert re-arms and fires anew.
        for value in rng.normal(0.0, 0.5, size=8):
            monitor.observe(float(value))
        again = []
        for value in [5.0] * 8:
            again.extend(monitor.observe(value))
        assert any(a.kind == "mean_shift" for a in again)

    def test_warmup_auto_baseline(self):
        rng = np.random.default_rng(4)
        monitor = make_monitor(min_samples=8)
        assert monitor.baseline is None
        for value in rng.normal(10.0, 1.0, size=8):
            assert monitor.observe(float(value)) == []
        assert monitor.baseline is not None
        assert monitor.baseline.mean == pytest.approx(10.0, abs=2.0)
        alerts = []
        for value in rng.normal(30.0, 1.0, size=16):
            alerts.extend(monitor.observe(float(value)))
        assert any(a.kind == "mean_shift" for a in alerts)

    def test_reset_keeps_baseline(self):
        monitor = make_monitor()
        monitor.freeze_baseline([1.0, 2.0, 3.0])
        monitor.observe(1.5)
        monitor.reset()
        assert monitor.baseline is not None
        assert monitor.window_stats() == (0.0, 0.0, 0)
        assert monitor.alerts == []


class TestSerialisation:
    def test_alert_dict_is_versioned(self):
        monitor = make_monitor(min_samples=2, window=4)
        monitor.freeze_baseline([0.0, 0.01, -0.01])
        alerts = monitor.observe(50.0) + monitor.observe(50.0)
        assert alerts
        data = alerts[0].to_dict()
        assert data["schema"] == SCHEMA_VERSION
        assert data["monitor"] == "test"
        assert data["kind"] in ("mean_shift", "variance_shift")
        assert "deviates" in data["message"] or "variance" in data["message"]

    def test_suite_to_dict(self):
        suite = DriftSuite(window=8, min_samples=4)
        suite.monitor("a").freeze_baseline([0.0, 1.0])
        suite.observe("a", 0.5)
        data = suite.to_dict()
        assert data["schema"] == SCHEMA_VERSION
        (entry,) = data["monitors"]
        assert entry["name"] == "a"
        assert entry["baseline"]["count"] == 2
        assert entry["window_n"] == 1


class TestSuite:
    def test_monitor_get_or_create(self):
        suite = DriftSuite(window=8, min_samples=4, mean_sigmas=3.0)
        m = suite.monitor("x")
        assert m is suite.monitor("x")
        assert m.mean_sigmas == 3.0
        assert [mon.name for mon in suite.monitors()] == ["x"]

    def test_alerts_merge_across_monitors(self):
        suite = DriftSuite(window=4, min_samples=2)
        suite.monitor("a").freeze_baseline([0.0, 0.01, -0.01])
        suite.monitor("b").freeze_baseline([0.0, 0.01, -0.01])
        for _ in range(3):
            suite.observe("a", 10.0)
            suite.observe("b", -10.0)
        monitors = {a.monitor for a in suite.alerts()}
        assert monitors == {"a", "b"}

    def test_alerts_keep_raise_order_across_monitors(self):
        suite = DriftSuite(window=4, min_samples=2)
        for name in ("a", "b"):
            suite.monitor(name).freeze_baseline([0.0, 0.01, -0.01])
        raised = []
        for name in ("b", "b", "a", "a"):
            raised += suite.observe(name, 10.0)
        # ``b`` raised its mean and variance shifts before ``a`` did,
        # although ``a`` registered first.
        assert [a.monitor for a in raised] == ["b", "b", "a", "a"]
        assert suite.alerts() == raised

    def test_alerts_read_while_observing_is_a_prefix(self):
        # The /drift HTTP thread reads while the fan-out appends: every
        # snapshot must be a prefix of the final raise-ordered list.
        suite = DriftSuite(window=4, min_samples=2)
        suite.monitor("a").freeze_baseline([0.0, 0.01, -0.01])
        done = threading.Event()
        snapshots: list = []

        def read():
            while not done.is_set():
                snapshots.append(suite.alerts())

        readers = [threading.Thread(target=read) for _ in range(3)]
        raised = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            # Alternate far and near values so the edges keep re-arming.
            for step in range(400):
                raised += suite.observe("a", 10.0 if step % 8 < 4 else 0.0)
        finally:
            done.set()
            for reader in readers:
                reader.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        final = suite.alerts()
        assert final == raised and len(final) > 2
        for snapshot in snapshots:
            assert snapshot == final[: len(snapshot)]


class TestPipelineIntegration:
    def test_enrollment_freezes_score_baseline(
        self, quiet_scene, chirp, subject
    ):
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
        baseline = pipeline.score_baseline
        assert baseline is not None
        assert baseline.count == 12

        result = pipeline.authenticate(
            quiet_scene.record_beeps(
                chirp, subject.beep_clouds(0.7, 3, rng), rng
            )
        )
        # The pipeline keeps no monitoring state: only the serving
        # fan-out feeds a drift suite, so a standalone attempt raises
        # no alerts and leaves the baseline as enrollment froze it.
        assert not hasattr(pipeline, "drift")
        assert not hasattr(result, "drift_alerts")
        assert pipeline.score_baseline is baseline
