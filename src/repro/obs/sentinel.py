"""Streaming security analytics: attack-pattern detection over decisions.

The drift/SLO/flight/audit stack watches *operational* health; nothing
watches for an **adversary** probing the authentication surface.  The
sentinel closes that gap: every authentication decision, broker
admission and store identification is fed into a set of streaming
per-tenant / per-user detectors, and a rules-based alert engine turns
detector state into edge-triggered, deduplicated
:class:`SecurityAlert` objects routed to the flight recorder, the
``echoimage_security_alerts_total{rule,severity}`` counter and the
``/alerts`` endpoint of :class:`repro.obs.server.ObservabilityServer`.

The rule catalogue (severities: ``info`` < ``warning`` < ``critical``):

==================  ========  ==============================================
rule                severity  fires when
==================  ========  ==============================================
``reject_spike``    warning   EWMA of a tenant's reject rate crosses the
                              configured ceiling (replay loudspeakers and
                              decoys are rejected *often*; legitimate users
                              are not)
``threshold_probing``  critical  a tenant's rejected SVDD scores climb
                              monotonically toward the accept gate — the
                              signature of an adaptive attacker sweeping
                              replica fidelity against the decision boundary
``velocity_burst``  warning   back-to-back attempts from one tenant arrive
                              faster than a human could re-position in
                              front of the device
``tenant_fanout``   critical  the same identified user appears from many
                              distinct tenants inside a short window
                              (credential replay across devices)
``shed_spike``      warning   EWMA of a tenant's broker-shed rate crosses
                              the ceiling (one source flooding admission)
``shard_drift``     warning   a shard's identification-score distribution
                              shifts away from its enrollment-frozen
                              baseline (:class:`repro.obs.drift.DriftMonitor`
                              machinery)
==================  ========  ==============================================

Alerts are edge-triggered per ``(rule, key)`` — a persistent condition
fires once and re-arms only after it recovers — and a per-key cooldown
swallows rapid flapping.  Parameters live in
:class:`repro.config.SentinelConfig`.

Like the audit ledger, the sentinel is opt-in: serving hooks read the
process-wide instance via :func:`get_security_sentinel` (``None`` by
default) and skip all work when none is installed.

Example:
    >>> from repro.config import SentinelConfig
    >>> from repro.obs.sentinel import SecuritySentinel
    >>> clock = iter(range(100))                   # scripted 1 s pacing
    >>> sentinel = SecuritySentinel(
    ...     SentinelConfig(min_attempts=4, reject_rate_threshold=0.6,
    ...                    ewma_alpha=0.5),
    ...     clock=lambda: float(next(clock)))
    >>> for _ in range(6):                         # a stream of rejects
    ...     alerts = sentinel.observe_auth(
    ...         tenant="porch", accepted=False, score=-0.8)
    >>> [a.rule for a in sentinel.alerts()]
    ['reject_spike']
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.config import SentinelConfig
from repro.obs.drift import DriftMonitor
from repro.obs.flight import get_flight_recorder
from repro.obs.metrics import SCHEMA_VERSION
from repro.obs.telemetry import pipeline_metrics

#: Rule names (the ``rule`` label on ``echoimage_security_alerts_total``).
RULE_REJECT_SPIKE = "reject_spike"
RULE_THRESHOLD_PROBING = "threshold_probing"
RULE_VELOCITY_BURST = "velocity_burst"
RULE_TENANT_FANOUT = "tenant_fanout"
RULE_SHED_SPIKE = "shed_spike"
RULE_SHARD_DRIFT = "shard_drift"

#: ``rule -> (severity, one-line description)`` — the catalogue served
#: by ``/alerts`` and documented in ``docs/OPERATIONS.md``.
RULES: dict[str, tuple[str, str]] = {
    RULE_REJECT_SPIKE: (
        "warning",
        "EWMA reject rate of one tenant crossed the ceiling",
    ),
    RULE_THRESHOLD_PROBING: (
        "critical",
        "rejected SVDD scores climbing monotonically toward the gate",
    ),
    RULE_VELOCITY_BURST: (
        "warning",
        "attempts arriving faster than a human could re-position",
    ),
    RULE_TENANT_FANOUT: (
        "critical",
        "same identified user from many tenants inside the window",
    ),
    RULE_SHED_SPIKE: (
        "warning",
        "EWMA broker-shed rate of one tenant crossed the ceiling",
    ),
    RULE_SHARD_DRIFT: (
        "warning",
        "shard score distribution drifted from its frozen baseline",
    ),
}


@dataclass(frozen=True)
class SecurityAlert:
    """One structured security alert raised by the sentinel.

    Attributes:
        rule: Which detector fired (a key of :data:`RULES`).
        severity: ``"info"``, ``"warning"`` or ``"critical"``.
        key: The edge/dedup key the rule tracks (a tenant, a user, or
            ``shard-<n>``).
        user: Identified user involved, when known.
        tenant: Traffic source involved, when known.
        observed: The detector statistic that crossed the threshold.
        threshold: The configured limit that was crossed.
        message: Human-readable one-liner.
        request_id: Correlation id of the observation that tipped the
            detector — joins the alert to spans, flight records and
            audit-ledger entries.
        raised_at: Wall-clock epoch seconds when the alert fired.
    """

    rule: str
    severity: str
    key: str
    observed: float
    threshold: float
    message: str
    user: str | None = None
    tenant: str | None = None
    request_id: str | None = None
    raised_at: float = 0.0

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable representation (``"schema": 1``)."""
        return {
            "schema": SCHEMA_VERSION,
            "rule": self.rule,
            "severity": self.severity,
            "key": self.key,
            "user": self.user,
            "tenant": self.tenant,
            "observed": self.observed,
            "threshold": self.threshold,
            "message": self.message,
            "request_id": self.request_id,
            "raised_at": self.raised_at,
        }


@dataclass
class _TenantState:
    """Streaming per-tenant detector state."""

    attempts: int = 0
    reject_ewma: float | None = None
    last_seen: float | None = None
    fast_run: int = 0
    last_score: float | None = None
    climb_run: int = 0
    admissions: int = 0
    shed_ewma: float | None = None


@dataclass
class _UserState:
    """Streaming per-user detector state."""

    #: ``(timestamp, tenant)`` of recent sightings, pruned to the
    #: fan-out window.
    sightings: deque = field(default_factory=deque)


class AlertEngine:
    """Edge-triggered, deduplicated alert firing and routing.

    One engine is owned by a :class:`SecuritySentinel`; detectors call
    :meth:`fire` with their current trigger state and the engine decides
    whether a new :class:`SecurityAlert` is raised:

    * **edge-triggering** — a ``(rule, key)`` that is already in the
      alerting region does not re-fire; it re-arms when the detector
      reports ``triggered=False`` for that key;
    * **cooldown** — after a fire, re-fires of the same ``(rule, key)``
      are swallowed for ``cooldown_s`` even across re-arms, so a
      condition flapping around its threshold cannot spam the channel.

    Raised alerts are appended to :attr:`alerts`, counted into
    ``echoimage_security_alerts_total{rule,severity}`` and recorded as
    ``security_alert`` flight-recorder events.
    """

    def __init__(self, cooldown_s: float, clock) -> None:
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._active: set[tuple[str, str]] = set()
        self._last_fired: dict[tuple[str, str], float] = {}
        self.alerts: list[SecurityAlert] = []

    def fire(
        self,
        rule: str,
        key: str,
        *,
        triggered: bool,
        observed: float,
        threshold: float,
        message: str,
        user: str | None = None,
        tenant: str | None = None,
        request_id: str | None = None,
        edge: bool = True,
    ) -> list[SecurityAlert]:
        """Evaluate one rule's trigger state for one key.

        Args:
            rule: Rule name (a key of :data:`RULES`).
            key: Dedup key (tenant, user or shard id).
            triggered: Whether the detector is in its alerting region.
            observed: Detector statistic.
            threshold: Configured limit.
            message: Alert message.
            user: Involved user, when known.
            tenant: Involved tenant, when known.
            request_id: Correlation id of the tipping observation.
            edge: When ``False`` the edge state is skipped (for
                detectors like :class:`~repro.obs.drift.DriftMonitor`
                that edge-trigger internally); the cooldown still
                applies.

        Returns:
            The newly raised alerts (zero or one).
        """
        edge_key = (rule, key)
        if edge:
            if not triggered:
                self._active.discard(edge_key)
                return []
            if edge_key in self._active:
                return []
            self._active.add(edge_key)
        elif not triggered:
            return []
        now = self._clock()
        last = self._last_fired.get(edge_key)
        if last is not None and now - last < self.cooldown_s:
            return []
        self._last_fired[edge_key] = now
        severity = RULES[rule][0]
        alert = SecurityAlert(
            rule=rule,
            severity=severity,
            key=key,
            observed=float(observed),
            threshold=float(threshold),
            message=message,
            user=user,
            tenant=tenant,
            request_id=request_id,
            raised_at=time.time(),
        )
        self.alerts.append(alert)
        self._route(alert)
        return [alert]

    def _route(self, alert: SecurityAlert) -> None:
        """Count the alert and write it into the flight recorder."""
        pipeline_metrics().security_alerts.labels(
            rule=alert.rule, severity=alert.severity
        ).inc()
        document = alert.to_dict()
        document.pop("schema", None)
        get_flight_recorder().record_event("security_alert", **document)

    def reset(self) -> None:
        """Clear edge, cooldown and alert history."""
        self._active.clear()
        self._last_fired.clear()
        self.alerts.clear()


class SecuritySentinel:
    """Online security-analytics engine over authentication traffic.

    Args:
        config: Detector thresholds; defaults to
            :class:`repro.config.SentinelConfig`.
        clock: Monotonic-seconds source for inter-attempt timing
            (velocity, fan-out windows, cooldowns).  Defaults to
            :func:`time.monotonic`; experiments inject a scripted clock
            so attack pacing is deterministic.

    All ``observe_*`` methods are thread-safe (broker admissions arrive
    from arbitrary caller threads while decisions arrive from the
    dispatcher) and return the alerts their observation raised.
    """

    def __init__(
        self, config: SentinelConfig | None = None, clock=None
    ) -> None:
        self.config = config or SentinelConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        self._users: dict[str, _UserState] = {}
        self._shards: dict[str, DriftMonitor] = {}
        self._observed = 0
        self.engine = AlertEngine(self.config.cooldown_s, self._clock)

    # -- feeds ---------------------------------------------------------

    def observe_auth(
        self,
        *,
        accepted: bool,
        tenant: str = "default",
        user: str | None = None,
        score: float | None = None,
        request_id: str | None = None,
    ) -> list[SecurityAlert]:
        """Feed one authentication decision.

        Args:
            accepted: The decision.
            tenant: Traffic source of the attempt.
            user: Identified user for accepted attempts (``None`` keeps
                rejected/spoofer labels out of the fan-out tracker).
            score: Best (highest) finite SVDD decision score of the
                attempt; ``None`` when no decision was produced.
            request_id: Correlation id of the attempt.

        Returns:
            Alerts raised by this observation.
        """
        cfg = self.config
        now = self._clock()
        raised: list[SecurityAlert] = []
        with self._lock:
            self._observed += 1
            state = self._tenants.setdefault(tenant, _TenantState())

            # Velocity: attempts arriving faster than a human could
            # physically re-position in front of the device.
            if (
                state.last_seen is not None
                and now - state.last_seen < cfg.min_interval_s
            ):
                state.fast_run += 1
            else:
                state.fast_run = 0
            state.last_seen = now
            raised.extend(
                self.engine.fire(
                    RULE_VELOCITY_BURST,
                    tenant,
                    triggered=state.fast_run >= cfg.burst_run,
                    observed=float(state.fast_run),
                    threshold=float(cfg.burst_run),
                    tenant=tenant,
                    user=user,
                    request_id=request_id,
                    message=(
                        f"{tenant}: {state.fast_run} consecutive attempts "
                        f"under {cfg.min_interval_s:g}s apart"
                    ),
                )
            )

            # EWMA reject-rate spike.
            state.attempts += 1
            indicator = 0.0 if accepted else 1.0
            if state.reject_ewma is None:
                state.reject_ewma = indicator
            else:
                state.reject_ewma = (
                    cfg.ewma_alpha * indicator
                    + (1.0 - cfg.ewma_alpha) * state.reject_ewma
                )
            raised.extend(
                self.engine.fire(
                    RULE_REJECT_SPIKE,
                    tenant,
                    triggered=(
                        state.attempts >= cfg.min_attempts
                        and state.reject_ewma > cfg.reject_rate_threshold
                    ),
                    observed=state.reject_ewma,
                    threshold=cfg.reject_rate_threshold,
                    tenant=tenant,
                    user=user,
                    request_id=request_id,
                    message=(
                        f"{tenant}: EWMA reject rate "
                        f"{state.reject_ewma:.2f} over "
                        f"{cfg.reject_rate_threshold:.2f} after "
                        f"{state.attempts} attempts"
                    ),
                )
            )

            # Near-threshold probing: rejected scores climbing
            # monotonically just under the accept gate at 0.
            if accepted or score is None:
                state.climb_run = 0
                state.last_score = None
                self.engine.fire(
                    RULE_THRESHOLD_PROBING,
                    tenant,
                    triggered=False,
                    observed=0.0,
                    threshold=float(cfg.probe_run),
                    message="",
                )
            else:
                score = float(score)
                if (
                    state.last_score is not None
                    and score > state.last_score - cfg.probe_tolerance
                ):
                    state.climb_run += 1
                else:
                    state.climb_run = 1
                state.last_score = score
                raised.extend(
                    self.engine.fire(
                        RULE_THRESHOLD_PROBING,
                        tenant,
                        triggered=(
                            state.climb_run >= cfg.probe_run
                            and score < 0.0
                            and score > -cfg.probe_band
                        ),
                        observed=score,
                        threshold=cfg.probe_band,
                        tenant=tenant,
                        request_id=request_id,
                        message=(
                            f"{tenant}: {state.climb_run} climbing rejected "
                            f"scores, now {score:.4f} — within "
                            f"{cfg.probe_band:g} of the accept gate"
                        ),
                    )
                )

            # Same user from many tenants inside the window.
            if user is not None and accepted:
                ustate = self._users.setdefault(user, _UserState())
                ustate.sightings.append((now, tenant))
                horizon = now - cfg.fanout_window_s
                while ustate.sightings and ustate.sightings[0][0] < horizon:
                    ustate.sightings.popleft()
                distinct = {t for _, t in ustate.sightings}
                raised.extend(
                    self.engine.fire(
                        RULE_TENANT_FANOUT,
                        user,
                        triggered=len(distinct) >= cfg.tenant_fanout,
                        observed=float(len(distinct)),
                        threshold=float(cfg.tenant_fanout),
                        user=user,
                        tenant=tenant,
                        request_id=request_id,
                        message=(
                            f"user {user} accepted from {len(distinct)} "
                            f"tenants within {cfg.fanout_window_s:g}s"
                        ),
                    )
                )
        return raised

    def observe_admission(
        self,
        *,
        tenant: str = "default",
        shed_reason: str | None = None,
        request_id: str | None = None,
    ) -> list[SecurityAlert]:
        """Feed one broker admission decision.

        Args:
            tenant: Traffic source of the admission.
            shed_reason: ``None`` for admitted requests, otherwise the
                shed reason (``"capacity"`` / ``"slo_burn"``).
            request_id: Correlation id of the request.

        Returns:
            Alerts raised by this observation.
        """
        cfg = self.config
        raised: list[SecurityAlert] = []
        with self._lock:
            state = self._tenants.setdefault(tenant, _TenantState())
            state.admissions += 1
            indicator = 0.0 if shed_reason is None else 1.0
            if state.shed_ewma is None:
                state.shed_ewma = indicator
            else:
                state.shed_ewma = (
                    cfg.ewma_alpha * indicator
                    + (1.0 - cfg.ewma_alpha) * state.shed_ewma
                )
            raised.extend(
                self.engine.fire(
                    RULE_SHED_SPIKE,
                    tenant,
                    triggered=(
                        state.admissions >= cfg.min_attempts
                        and state.shed_ewma > cfg.shed_rate_threshold
                    ),
                    observed=state.shed_ewma,
                    threshold=cfg.shed_rate_threshold,
                    tenant=tenant,
                    request_id=request_id,
                    message=(
                        f"{tenant}: EWMA shed rate {state.shed_ewma:.2f} "
                        f"over {cfg.shed_rate_threshold:.2f} after "
                        f"{state.admissions} admissions"
                    ),
                )
            )
        return raised

    def observe_identify(
        self,
        *,
        shard: int | str,
        gate_scores=(),
        user: str | None = None,
        request_id: str | None = None,
    ) -> list[SecurityAlert]:
        """Feed one store identification's per-shard gate scores.

        Scores stream into a per-shard
        :class:`~repro.obs.drift.DriftMonitor` compared against the
        baseline frozen at enrollment (:meth:`freeze_shard_baseline`) —
        or auto-frozen from the first observations when enrollment-time
        scores were never provided.

        Returns:
            Alerts raised by this observation.
        """
        raised: list[SecurityAlert] = []
        key = f"shard-{shard}"
        with self._lock:
            monitor = self._shard_monitor(key)
            for value in gate_scores:
                for drift in monitor.observe(float(value)):
                    raised.extend(
                        self.engine.fire(
                            RULE_SHARD_DRIFT,
                            key,
                            triggered=True,
                            edge=False,  # DriftMonitor edges internally
                            observed=drift.observed,
                            threshold=drift.threshold,
                            user=user,
                            request_id=request_id,
                            message=drift.message,
                        )
                    )
        return raised

    def freeze_shard_baseline(self, shard: int | str, values) -> None:
        """Freeze a shard's score baseline from enrollment-time values."""
        key = f"shard-{shard}"
        with self._lock:
            self._shard_monitor(key).freeze_baseline(values)

    def _shard_monitor(self, key: str) -> DriftMonitor:
        monitor = self._shards.get(key)
        if monitor is None:
            cfg = self.config
            monitor = DriftMonitor(
                f"sentinel.{key}",
                window=cfg.shard_window,
                min_samples=cfg.shard_min_samples,
                mean_sigmas=cfg.shard_mean_sigmas,
                variance_ratio=cfg.shard_variance_ratio,
            )
            self._shards[key] = monitor
        return monitor

    # -- reading -------------------------------------------------------

    def alerts(
        self, limit: int | None = None, rule: str | None = None
    ) -> list[SecurityAlert]:
        """Alerts raised so far, oldest first.

        Args:
            limit: Keep only the newest ``limit`` (after filtering).
            rule: Keep only alerts of this rule.
        """
        with self._lock:
            alerts = list(self.engine.alerts)
        if rule is not None:
            alerts = [a for a in alerts if a.rule == rule]
        if limit is not None and limit >= 0:
            alerts = alerts[len(alerts) - min(limit, len(alerts)):]
        return alerts

    def counts(self) -> dict[str, int]:
        """``rule -> fired count`` over the alert history."""
        counts: dict[str, int] = {}
        for alert in self.alerts():
            counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return counts

    def to_dict(
        self, limit: int | None = None, rule: str | None = None
    ) -> dict:
        """Versioned ``/alerts`` document (``"schema": 1``)."""
        alerts = self.alerts(limit=limit, rule=rule)
        with self._lock:
            observed = self._observed
            total = len(self.engine.alerts)
        return {
            "schema": SCHEMA_VERSION,
            "kind": "security_sentinel",
            "rules": [
                {"rule": name, "severity": sev, "description": desc}
                for name, (sev, desc) in RULES.items()
            ],
            "observed_attempts": observed,
            "total_alerts": total,
            "counts": self.counts(),
            "alerts": [a.to_dict() for a in alerts],
        }

    def reset(self) -> None:
        """Drop all detector state and alert history (config is kept)."""
        with self._lock:
            self._tenants.clear()
            self._users.clear()
            self._shards.clear()
            self._observed = 0
            self.engine.reset()


# -- process-wide default sentinel ---------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_SENTINEL: SecuritySentinel | None = None


def get_security_sentinel() -> SecuritySentinel | None:
    """The installed sentinel, or ``None`` (detection is opt-in)."""
    with _DEFAULT_LOCK:
        return _DEFAULT_SENTINEL


def set_security_sentinel(
    sentinel: SecuritySentinel | None,
) -> SecuritySentinel | None:
    """Install (or with ``None`` remove) the process-wide sentinel.

    Returns:
        The previously installed sentinel, for restoration.
    """
    global _DEFAULT_SENTINEL
    with _DEFAULT_LOCK:
        previous = _DEFAULT_SENTINEL
        _DEFAULT_SENTINEL = sentinel
        return previous
