"""Security sentinel: detectors, alert engine, routing, cardinality."""

import threading

import pytest

from repro.config import SentinelConfig
from repro.obs.telemetry import (
    TENANT_HASH_BUCKETS,
    TENANT_LABEL_CAP,
    pipeline_metrics,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SecuritySentinel,
    get_security_sentinel,
    set_registry,
    set_flight_recorder,
    set_security_sentinel,
)
from repro.obs.sentinel import RULES


class Ticker:
    """A scripted clock the tests advance explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_sentinel(clock=None, **overrides) -> SecuritySentinel:
    defaults = dict(
        ewma_alpha=0.5,
        reject_rate_threshold=0.6,
        min_attempts=3,
        probe_run=3,
        probe_band=0.2,
        min_interval_s=0.5,
        burst_run=2,
        tenant_fanout=2,
        fanout_window_s=30.0,
        cooldown_s=30.0,
        shed_rate_threshold=0.5,
    )
    defaults.update(overrides)
    return SecuritySentinel(
        SentinelConfig(**defaults), clock=clock or Ticker()
    )


class TestDetectors:
    def test_reject_spike_needs_min_attempts_then_fires_once(self):
        sentinel = make_sentinel()
        alerts = []
        for _ in range(6):
            alerts += sentinel.observe_auth(
                accepted=False, tenant="porch", score=-0.9
            )
        spikes = [a for a in alerts if a.rule == "reject_spike"]
        assert len(spikes) == 1  # edge-triggered: fires exactly once
        assert spikes[0].tenant == "porch"
        assert spikes[0].observed > spikes[0].threshold
        assert spikes[0].severity == "warning"

    def test_accepts_keep_reject_spike_quiet(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock)
        for _ in range(20):
            clock.now += 4.0
            assert (
                sentinel.observe_auth(
                    accepted=True, tenant="home", user="alice", score=0.3
                )
                == []
            )
        assert sentinel.alerts() == []

    def test_threshold_probing_on_climbing_scores_under_gate(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock)
        alerts = []
        for score in (-0.9, -0.15, -0.1, -0.05):
            clock.now += 4.0
            alerts += sentinel.observe_auth(
                accepted=False, tenant="porch", score=score
            )
        probing = [a for a in alerts if a.rule == "threshold_probing"]
        assert len(probing) == 1
        assert probing[0].severity == "critical"
        # Fires on the third climbing score — the first to satisfy the
        # run length — not on the sweep's last step.
        assert probing[0].observed == pytest.approx(-0.1)

    def test_probing_run_resets_on_accept_or_falling_score(self):
        sentinel = make_sentinel()
        # Climb interrupted by an accepted attempt: run starts over.
        for score in (-0.15, -0.1):
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=score
            )
        sentinel.observe_auth(accepted=True, tenant="porch", score=0.2)
        for score in (-0.15, -0.1):
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=score
            )
        assert sentinel.counts().get("threshold_probing") is None
        # A falling score also breaks the run.
        sentinel.observe_auth(accepted=False, tenant="porch", score=-0.9)
        assert sentinel.counts().get("threshold_probing") is None

    def test_scores_climbing_below_the_band_stay_quiet(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock, probe_band=0.05)
        for score in (-0.5, -0.4, -0.3, -0.2):
            clock.now += 4.0
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=score
            )
        # The rejects may legitimately trip reject_spike; the point is
        # that scores far below the gate never look like probing.
        assert sentinel.alerts(rule="threshold_probing") == []

    def test_velocity_burst_on_inhuman_pacing(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock)
        alerts = []
        for _ in range(4):
            clock.now += 0.05
            alerts += sentinel.observe_auth(
                accepted=True, tenant="porch", user="alice", score=0.1
            )
        burst = [a for a in alerts if a.rule == "velocity_burst"]
        assert len(burst) == 1
        assert burst[0].observed >= 2.0

    def test_human_pacing_never_bursts(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock)
        for _ in range(10):
            clock.now += 4.0
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=-0.9
            )
        assert sentinel.counts().get("velocity_burst") is None

    def test_tenant_fanout_on_same_user_from_many_tenants(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock, tenant_fanout=3)
        alerts = []
        for tenant in ("kitchen", "lobby", "garage"):
            clock.now += 1.0
            alerts += sentinel.observe_auth(
                accepted=True, tenant=tenant, user="alice", score=0.2
            )
        fanout = [a for a in alerts if a.rule == "tenant_fanout"]
        assert len(fanout) == 1
        assert fanout[0].user == "alice"
        assert fanout[0].observed == 3.0

    def test_fanout_window_prunes_old_sightings(self):
        clock = Ticker()
        sentinel = make_sentinel(
            clock=clock, tenant_fanout=3, fanout_window_s=10.0
        )
        for tenant in ("kitchen", "lobby"):
            clock.now += 1.0
            sentinel.observe_auth(
                accepted=True, tenant=tenant, user="alice", score=0.2
            )
        clock.now += 60.0  # both sightings age out of the window
        sentinel.observe_auth(
            accepted=True, tenant="garage", user="alice", score=0.2
        )
        assert sentinel.counts().get("tenant_fanout") is None

    def test_rejected_attempts_never_count_toward_fanout(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock, tenant_fanout=2)
        for tenant in ("kitchen", "lobby", "garage"):
            clock.now += 1.0
            sentinel.observe_auth(
                accepted=False, tenant=tenant, user="alice", score=-0.9
            )
        assert sentinel.counts().get("tenant_fanout") is None

    def test_shed_spike_on_flooding_tenant(self):
        sentinel = make_sentinel()
        alerts = []
        for _ in range(4):
            alerts += sentinel.observe_admission(
                tenant="flood", shed_reason="capacity"
            )
        sheds = [a for a in alerts if a.rule == "shed_spike"]
        assert len(sheds) == 1
        # Admitted traffic decays the EWMA back under the ceiling.
        for _ in range(8):
            sentinel.observe_admission(tenant="flood")
        assert sentinel.counts()["shed_spike"] == 1

    def test_shard_drift_against_frozen_baseline(self):
        sentinel = make_sentinel(
            shard_window=8, shard_min_samples=4, shard_mean_sigmas=4.0
        )
        sentinel.freeze_shard_baseline(0, [0.0, 0.01, -0.01, 0.02])
        alerts = []
        for _ in range(4):
            alerts += sentinel.observe_identify(
                shard=0, gate_scores=(25.0,), request_id="req-drift"
            )
        drifted = [a for a in alerts if a.rule == "shard_drift"]
        assert drifted
        assert drifted[0].key == "shard-0"
        assert drifted[0].request_id == "req-drift"

    def test_shards_are_isolated(self):
        sentinel = make_sentinel(shard_window=8, shard_min_samples=4)
        sentinel.freeze_shard_baseline(0, [0.0, 0.01, -0.01, 0.02])
        for _ in range(6):
            sentinel.observe_identify(shard=1, gate_scores=(25.0,))
        assert sentinel.counts().get("shard_drift") is None


class TestAlertEngine:
    def test_edge_rearms_after_recovery_but_cooldown_holds(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock, cooldown_s=100.0)
        engine = sentinel.engine

        def fire(triggered):
            return engine.fire(
                "reject_spike", "porch", triggered=triggered,
                observed=1.0, threshold=0.5, message="m",
            )

        assert len(fire(True)) == 1
        assert fire(True) == []          # still in the alerting region
        assert fire(False) == []         # recovery re-arms the edge
        clock.now += 5.0
        assert fire(True) == []          # re-armed, but cooldown holds
        clock.now += 100.0
        assert fire(False) == []
        assert len(fire(True)) == 1      # cooldown expired: fires again

    def test_keys_do_not_interfere(self):
        sentinel = make_sentinel()
        engine = sentinel.engine
        assert len(
            engine.fire(
                "reject_spike", "a", triggered=True, observed=1.0,
                threshold=0.5, message="m",
            )
        ) == 1
        assert len(
            engine.fire(
                "reject_spike", "b", triggered=True, observed=1.0,
                threshold=0.5, message="m",
            )
        ) == 1

    def test_alerts_route_to_metrics_and_flight_recorder(self):
        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
        recorder = FlightRecorder()
        previous_recorder = set_flight_recorder(recorder)
        try:
            clock = Ticker()
            sentinel = make_sentinel(clock=clock)
            for _ in range(4):
                clock.now += 4.0
                sentinel.observe_auth(
                    accepted=False, tenant="porch", score=-0.9,
                    request_id="req-bad",
                )
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous_registry)
            set_flight_recorder(previous_recorder)
        assert (
            'echoimage_security_alerts_total'
            '{rule="reject_spike",severity="warning"} 1' in rendered
        )
        events = recorder.events(kind="security_alert")
        assert len(events) == 1
        assert events[0]["rule"] == "reject_spike"
        assert events[0]["request_id"] == "req-bad"

    def test_reset_clears_state_and_history(self):
        sentinel = make_sentinel()
        for _ in range(4):
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=-0.9
            )
        assert sentinel.alerts()
        sentinel.reset()
        assert sentinel.alerts() == []
        assert sentinel.to_dict()["observed_attempts"] == 0
        # Edge state cleared too: the same condition fires again.
        for _ in range(4):
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=-0.9
            )
        assert sentinel.counts()["reject_spike"] == 1


class TestDocumentAndDefaults:
    def test_to_dict_is_versioned_and_filterable(self):
        clock = Ticker()
        sentinel = make_sentinel(clock=clock)
        for _ in range(4):
            clock.now += 4.0
            sentinel.observe_auth(
                accepted=False, tenant="porch", score=-0.9
            )
        doc = sentinel.to_dict()
        assert doc["schema"] == 1
        assert doc["kind"] == "security_sentinel"
        assert {r["rule"] for r in doc["rules"]} == set(RULES)
        assert doc["total_alerts"] == len(doc["alerts"]) == 1
        filtered = sentinel.to_dict(rule="tenant_fanout")
        assert filtered["alerts"] == []
        assert filtered["total_alerts"] == 1  # totals are unfiltered

    def test_process_default_is_opt_in(self):
        assert get_security_sentinel() is None
        sentinel = make_sentinel()
        previous = set_security_sentinel(sentinel)
        try:
            assert get_security_sentinel() is sentinel
        finally:
            set_security_sentinel(previous)
        assert get_security_sentinel() is None

    def test_observe_is_thread_safe(self):
        sentinel = make_sentinel(cooldown_s=0.0)
        errors = []

        def hammer(tenant):
            try:
                for i in range(200):
                    sentinel.observe_auth(
                        accepted=i % 2 == 0, tenant=tenant,
                        user="bob" if i % 2 == 0 else None,
                        score=0.1 if i % 2 == 0 else -0.5,
                    )
                    sentinel.observe_admission(
                        tenant=tenant,
                        shed_reason="capacity" if i % 3 == 0 else None,
                    )
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert sentinel.to_dict()["observed_attempts"] == 800


class TestTenantLabelCardinality:
    def test_first_cap_tenants_keep_their_names(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            metrics = pipeline_metrics()
            names = [f"tenant-{i}" for i in range(TENANT_LABEL_CAP)]
            assert [metrics.tenant_label(n) for n in names] == names
            # Seen tenants keep resolving verbatim even once full.
            assert metrics.tenant_label("tenant-0") == "tenant-0"
        finally:
            set_registry(previous)

    def test_overflow_tenants_hash_into_bounded_buckets(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            metrics = pipeline_metrics()
            for i in range(TENANT_LABEL_CAP):
                metrics.tenant_label(f"tenant-{i}")
            overflow = {
                metrics.tenant_label(f"minted-{i}") for i in range(500)
            }
        finally:
            set_registry(previous)
        assert len(overflow) <= TENANT_HASH_BUCKETS
        assert all(label.startswith("bucket-") for label in overflow)
        # Stable: the same tenant always lands in the same bucket.
        assert metrics.tenant_label("minted-7") == metrics.tenant_label(
            "minted-7"
        )

    def test_fresh_registry_resets_the_cap(self):
        first = MetricsRegistry()
        previous = set_registry(first)
        try:
            metrics = pipeline_metrics()
            for i in range(TENANT_LABEL_CAP + 5):
                metrics.tenant_label(f"old-{i}")
            second = MetricsRegistry()
            set_registry(second)
            fresh = pipeline_metrics()
            assert fresh.tenant_label("brand-new") == "brand-new"
        finally:
            set_registry(previous)