"""Declarative SLOs with error-budget accounting and burn-rate windows.

Metrics say what the system *did*; an SLO says what it *promised*.  This
module turns the serving-layer counters and latency histogram of the
:mod:`repro.obs.telemetry` catalogue, which the serving fan-out records,
into budget arithmetic an on-call rotation can act on:

* :class:`SLOConfig` declares the objectives — an **availability**
  target (fraction of requests that complete ``ok``/``degraded``) and a
  **latency** target (fraction of requests faster than a threshold that
  should sit on a ``echoimage_serve_request_latency_seconds`` bucket
  bound, where :meth:`repro.obs.metrics.Histogram.estimate_count_le`
  is exact);
* :class:`SLOTracker` evaluates them from the live registry: compliance,
  the fraction of error budget left, and burn rates over configurable
  trailing windows (a burn rate of 1.0 spends the budget exactly at the
  sustainable pace; Google's SRE workbook pages at ~14x on the fast
  window).

Every :meth:`SLOTracker.evaluate` publishes ``echoimage_slo_*`` gauges
back into the registry (so the SLO state itself is scrapeable) and
returns the versioned document that the ``/slo`` endpoint of
:class:`repro.obs.server.ObservabilityServer` serves.

Example:
    >>> from repro.obs.metrics import MetricsRegistry
    >>> from repro.obs.slo import SLOConfig, SLOTracker
    >>> reg = MetricsRegistry()
    >>> serve = reg.counter(
    ...     "echoimage_serve_requests_total", "", labels=("outcome",))
    >>> for _ in range(99):
    ...     serve.labels(outcome="ok").inc()
    >>> serve.labels(outcome="error").inc()
    >>> tracker = SLOTracker(
    ...     SLOConfig(availability_target=0.95), registry=reg, clock=lambda: 0.0)
    >>> doc = tracker.evaluate()
    >>> availability = doc["objectives"][0]
    >>> availability["compliance"], round(availability["budget_remaining"], 9)
    (0.99, 0.8)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.metrics import (
    MetricsRegistry,
    SCHEMA_VERSION,
    get_registry,
)

#: Serving outcomes that count as *available* for the availability SLO
#: (a degraded answer is a slower/coarser answer, not an outage).
AVAILABLE_OUTCOMES = frozenset({"ok", "degraded"})

#: Counter family the availability objective reads.
SERVE_REQUESTS_METRIC = "echoimage_serve_requests_total"

#: Histogram family the latency objective reads.
SERVE_LATENCY_METRIC = "echoimage_serve_request_latency_seconds"


@dataclass(frozen=True)
class SLOConfig:
    """Declarative serving objectives.

    Attributes:
        availability_target: Fraction of requests that must complete
            ``ok`` or ``degraded`` (e.g. ``0.999``).
        latency_target: Fraction of requests that must finish within
            ``latency_threshold_s`` (e.g. ``0.95``).
        latency_threshold_s: The latency objective's threshold, in
            seconds.  Align it with a bucket bound of
            ``echoimage_serve_request_latency_seconds`` — in-bucket
            interpolation only kicks in off-bound.
        burn_windows_s: Trailing windows (seconds) over which burn
            rates are computed, fastest first.
    """

    availability_target: float = 0.999
    latency_target: float = 0.95
    latency_threshold_s: float = 0.25
    burn_windows_s: tuple[float, ...] = (300.0, 3600.0)

    def __post_init__(self) -> None:
        for name, target in (
            ("availability_target", self.availability_target),
            ("latency_target", self.latency_target),
        ):
            if not 0.0 < target < 1.0:
                raise ValueError(
                    f"{name} must lie strictly in (0, 1), got {target}"
                )
        if self.latency_threshold_s <= 0:
            raise ValueError(
                f"latency_threshold_s must be positive, "
                f"got {self.latency_threshold_s}"
            )
        object.__setattr__(
            self, "burn_windows_s",
            tuple(float(w) for w in self.burn_windows_s),
        )
        if any(w <= 0 for w in self.burn_windows_s):
            raise ValueError(
                f"burn windows must be positive, got {self.burn_windows_s}"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "availability_target": self.availability_target,
            "latency_target": self.latency_target,
            "latency_threshold_s": self.latency_threshold_s,
            "burn_windows_s": list(self.burn_windows_s),
        }


@dataclass
class _Objective:
    """One objective's identity plus its burn-rate history."""

    name: str
    target: float
    #: ``(timestamp, total, good)`` snapshots, oldest first.
    history: list[tuple[float, float, float]] = field(default_factory=list)


def _burn_rate(
    history: list[tuple[float, float, float]],
    now: float,
    window_s: float,
    target: float,
) -> float:
    """Error-budget burn rate over the trailing window.

    The rate is the window's error rate divided by the budgeted error
    rate ``1 - target``: 1.0 spends the budget exactly at the
    sustainable pace, 0.0 means a clean window, and ``k`` means the
    budget drains ``k`` times too fast.  Windows with no traffic burn
    nothing.
    """
    cutoff = now - window_s
    baseline = None
    for ts, total, good in history:
        if ts >= cutoff:
            baseline = (total, good)
            break
    if baseline is None:
        return 0.0
    latest_total, latest_good = history[-1][1], history[-1][2]
    delta_total = latest_total - baseline[0]
    delta_good = latest_good - baseline[1]
    if delta_total <= 0:
        return 0.0
    error_rate = max(0.0, (delta_total - delta_good) / delta_total)
    return error_rate / (1.0 - target)


class SLOTracker:
    """Evaluates :class:`SLOConfig` objectives against a live registry.

    Args:
        config: The declared objectives.
        registry: Registry to read serving metrics from and publish
            ``echoimage_slo_*`` gauges into; defaults to the process
            registry at each evaluation (so it follows
            :func:`repro.obs.set_registry` swaps).
        clock: Injectable time source for burn-rate windows (tests pass
            a fake; production uses ``time.time``).

    Each :meth:`evaluate` appends one ``(t, total, good)`` snapshot per
    objective, prunes history beyond the longest burn window, publishes
    the gauges and returns the versioned ``/slo`` document.  The tracker
    is driven by whoever owns the serving loop (e.g.
    ``scripts/serve_monitor.py`` evaluates after every batch); the
    ``/slo`` endpoint evaluates on demand.
    """

    def __init__(
        self,
        config: SLOConfig | None = None,
        registry: MetricsRegistry | None = None,
        clock=time.time,
    ) -> None:
        self.config = config or SLOConfig()
        self._registry = registry
        self._clock = clock
        self._objectives = [
            _Objective("availability", self.config.availability_target),
            _Objective("latency", self.config.latency_target),
        ]

    @property
    def registry(self) -> MetricsRegistry:
        """The registry currently read from / published into."""
        return self._registry if self._registry is not None else get_registry()

    # -- metric reading ------------------------------------------------

    def _serve_counts(self) -> tuple[float, float]:
        """``(total, available)`` from the serving outcome counters."""
        family = self.registry.get(SERVE_REQUESTS_METRIC)
        total = 0.0
        available = 0.0
        if family is not None:
            for label_dict, child in family.samples():
                value = child.value
                total += value
                if label_dict.get("outcome") in AVAILABLE_OUTCOMES:
                    available += value
        return total, available

    def _latency_counts(self) -> tuple[float, float]:
        """``(total, within-threshold)`` from the latency histogram."""
        family = self.registry.get(SERVE_LATENCY_METRIC)
        total = 0.0
        fast = 0.0
        if family is not None:
            for _, child in family.samples():
                total += child.count
                fast += child.estimate_count_le(
                    self.config.latency_threshold_s
                )
        return total, fast

    # -- evaluation ----------------------------------------------------

    def evaluate(self) -> dict:
        """Snapshot all objectives; publish gauges; return the document.

        Returns:
            The versioned ``/slo`` payload: per objective the target,
            observed totals, compliance, fraction of error budget
            remaining (negative once overspent) and per-window burn
            rates.  Objectives with no traffic yet report full
            compliance and an untouched budget.
        """
        now = float(self._clock())
        counts = {
            "availability": self._serve_counts(),
            "latency": self._latency_counts(),
        }
        registry = self.registry
        compliance_gauge = registry.gauge(
            "echoimage_slo_compliance",
            "Observed compliance per SLO objective (fraction)",
            labels=("objective",),
        )
        budget_gauge = registry.gauge(
            "echoimage_slo_budget_remaining",
            "Fraction of the SLO error budget remaining (negative = overspent)",
            labels=("objective",),
        )
        burn_gauge = registry.gauge(
            "echoimage_slo_burn_rate",
            "Error-budget burn rate over a trailing window (1.0 = sustainable)",
            labels=("objective", "window_s"),
        )
        horizon = max(self.config.burn_windows_s)
        objectives = []
        for objective in self._objectives:
            total, good = counts[objective.name]
            objective.history.append((now, total, good))
            while (
                len(objective.history) > 2
                and objective.history[1][0] <= now - horizon
            ):
                objective.history.pop(0)
            compliance = good / total if total > 0 else 1.0
            budget = 1.0 - objective.target
            budget_remaining = 1.0 - (1.0 - compliance) / budget
            burn_rates = {
                window: _burn_rate(
                    objective.history, now, window, objective.target
                )
                for window in self.config.burn_windows_s
            }
            compliance_gauge.labels(objective=objective.name).set(compliance)
            budget_gauge.labels(objective=objective.name).set(budget_remaining)
            for window, rate in burn_rates.items():
                burn_gauge.labels(
                    objective=objective.name, window_s=f"{window:g}"
                ).set(rate)
            entry = {
                "name": objective.name,
                "target": objective.target,
                "total": total,
                "good": good,
                "compliance": compliance,
                "budget_remaining": budget_remaining,
                "burn_rates": {
                    f"{window:g}": rate for window, rate in burn_rates.items()
                },
            }
            if objective.name == "latency":
                entry["threshold_s"] = self.config.latency_threshold_s
            objectives.append(entry)
        return {
            "schema": SCHEMA_VERSION,
            "kind": "slo",
            "evaluated_at": now,
            "config": self.config.to_dict(),
            "objectives": objectives,
        }

    def to_dict(self) -> dict:
        """Alias for :meth:`evaluate` (the ``/slo`` document)."""
        return self.evaluate()
