"""Score- and signal-distribution drift monitoring.

Deployment experience with acoustic authentication (ARRAYID, PIANO and
EchoImage alike) is that the dominant field failure is not a broken model
but a *shifted distribution*: the acoustic channel degrades (furniture
moved, speaker repositioned, new ambient source) or the user's score
distribution wanders away from its enrollment-time shape.  Both are
invisible to offline benchmarks and must be watched continuously.

:class:`DriftMonitor` implements the standard recipe:

1. freeze a **baseline** (mean/std) at registration time — either
   explicitly from enrollment scores (:meth:`DriftMonitor.freeze_baseline`)
   or automatically from the first ``min_samples`` observations when no
   enrollment-time values exist (e.g. channel SNR, which is only measured
   per attempt);
2. keep a **sliding window** of recent observations;
3. on every observation, compare the window to the baseline — a z-test on
   the window mean and a variance-ratio test — and raise a structured
   :class:`DriftAlert` when a threshold is crossed.

Alerts are edge-triggered: each kind fires once when the window enters
the alerting region and re-arms only after it recovers, so a persistent
shift produces one alert instead of one per observation.

Example:
    >>> from repro.obs.drift import DriftMonitor
    >>> monitor = DriftMonitor("auth.score", window=8, min_samples=4)
    >>> baseline = monitor.freeze_baseline([1.0, 1.1, 0.9, 1.0, 1.05, 0.95])
    >>> round(baseline.mean, 4), round(baseline.std, 4), baseline.count
    (1.0, 0.0707, 6)
    >>> all(not monitor.observe(v) for v in (1.0, 1.1, 0.95, 0.9))
    True
    >>> alerts = []
    >>> for v in (3.0, 3.1, 2.9, 3.0):
    ...     alerts.extend(monitor.observe(v))
    >>> alerts[0].kind
    'mean_shift'
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.correlation import current_request_id
from repro.obs.metrics import SCHEMA_VERSION

#: Floor applied to baseline standard deviations so a (near-)constant
#: baseline still yields a usable z-test scale.
MIN_BASELINE_STD = 1e-12


@dataclass(frozen=True)
class DriftBaseline:
    """Frozen registration-time distribution summary.

    Attributes:
        mean: Baseline mean.
        std: Baseline standard deviation (ddof=1 when possible).
        count: Number of values the baseline was frozen from.
    """

    mean: float
    std: float
    count: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "DriftBaseline":
        """Freeze a baseline from a sequence of values."""
        data = [float(v) for v in values]
        if len(data) < 2:
            raise ValueError(
                f"need at least 2 values to freeze a baseline, got {len(data)}"
            )
        mean = sum(data) / len(data)
        var = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
        return cls(mean=mean, std=math.sqrt(var), count=len(data))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"mean": self.mean, "std": self.std, "count": self.count}


@dataclass(frozen=True)
class DriftAlert:
    """One structured drift alert.

    Attributes:
        monitor: Name of the monitor that fired.
        kind: ``"mean_shift"`` or ``"variance_shift"``.
        observed: The offending window statistic (window mean, or the
            window/baseline variance ratio).
        expected: The baseline statistic the window was compared to.
        threshold: The configured limit that was crossed.
        window: Number of observations in the window when the alert fired.
        message: Human-readable one-liner.
        request_id: Correlation id of the request whose observation
            tipped the monitor over the threshold (``None`` when the
            alert fired outside a correlation scope) — the handle that
            joins the alert to the trace store and audit ledger.
    """

    monitor: str
    kind: str
    observed: float
    expected: float
    threshold: float
    window: int
    message: str
    request_id: str | None = None

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable representation (``"schema": 1``)."""
        return {
            "schema": SCHEMA_VERSION,
            "monitor": self.monitor,
            "kind": self.kind,
            "observed": self.observed,
            "expected": self.expected,
            "threshold": self.threshold,
            "window": self.window,
            "message": self.message,
            "request_id": self.request_id,
        }


class DriftMonitor:
    """Sliding-window drift detector against a frozen baseline.

    Args:
        name: Monitor name (appears on alerts, e.g. ``"auth.score"``).
        window: Sliding-window length.
        min_samples: Observations required in the window before tests run;
            also the auto-baseline size when no baseline is frozen.
        mean_sigmas: Alert when the window mean deviates from the baseline
            mean by more than this many standard errors
            (``baseline.std / sqrt(n)``).
        variance_ratio: Alert when the window/baseline variance ratio
            leaves ``[1/variance_ratio, variance_ratio]``.
        baseline: Optional pre-frozen baseline.

    Not thread-safe: feed a monitor from one thread at a time (a
    :class:`DriftSuite` serialises its monitors' observations).
    """

    def __init__(
        self,
        name: str,
        window: int = 64,
        min_samples: int = 16,
        mean_sigmas: float = 4.0,
        variance_ratio: float = 6.0,
        baseline: DriftBaseline | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if min_samples < 2 or min_samples > window:
            raise ValueError(
                f"min_samples must lie in [2, window], got {min_samples}"
            )
        if mean_sigmas <= 0 or variance_ratio <= 1.0:
            raise ValueError(
                "mean_sigmas must be positive and variance_ratio > 1"
            )
        self.name = name
        self.window = window
        self.min_samples = min_samples
        self.mean_sigmas = mean_sigmas
        self.variance_ratio = variance_ratio
        self.baseline = baseline
        self._values: deque[float] = deque(maxlen=window)
        self._warmup: list[float] = []
        self._active: set[str] = set()
        self.alerts: list[DriftAlert] = []

    def freeze_baseline(
        self, values: Iterable[float]
    ) -> DriftBaseline:
        """Freeze the registration-time baseline from enrollment values.

        Replaces any previous baseline and clears warmup state; the
        sliding window and alert history are kept.
        """
        self.baseline = DriftBaseline.from_values(values)
        self._warmup = []
        return self.baseline

    def observe(self, value: float) -> list[DriftAlert]:
        """Feed one observation; returns newly raised alerts (often empty).

        Without a frozen baseline the first ``min_samples`` observations
        form the baseline automatically (a deployment-warmup proxy for
        quantities that are not measured at enrollment, like channel SNR)
        and never trigger alerts themselves.
        """
        value = float(value)
        if self.baseline is None:
            self._warmup.append(value)
            if len(self._warmup) >= self.min_samples:
                self.baseline = DriftBaseline.from_values(self._warmup)
                self._warmup = []
            return []
        self._values.append(value)
        return self.check()

    def window_stats(self) -> tuple[float, float, int]:
        """``(mean, variance, n)`` of the current sliding window."""
        n = len(self._values)
        if n == 0:
            return 0.0, 0.0, 0
        mean = sum(self._values) / n
        if n < 2:
            return mean, 0.0, n
        var = sum((v - mean) ** 2 for v in self._values) / (n - 1)
        return mean, var, n

    def check(self) -> list[DriftAlert]:
        """Run the drift tests on the current window.

        Returns:
            Newly raised (edge-triggered) alerts; an empty list when the
            window is healthy, too small, or an alert for the same kind is
            already active.
        """
        if self.baseline is None:
            return []
        mean, var, n = self.window_stats()
        if n < self.min_samples:
            return []
        raised: list[DriftAlert] = []
        base_std = max(self.baseline.std, MIN_BASELINE_STD)

        z = abs(mean - self.baseline.mean) / (base_std / math.sqrt(n))
        raised.extend(
            self._edge(
                "mean_shift",
                triggered=z > self.mean_sigmas,
                observed=mean,
                expected=self.baseline.mean,
                threshold=self.mean_sigmas,
                n=n,
                message=(
                    f"{self.name}: window mean {mean:.4g} deviates from "
                    f"baseline {self.baseline.mean:.4g} by {z:.1f} sigma "
                    f"(limit {self.mean_sigmas:.1f})"
                ),
            )
        )

        base_var = max(self.baseline.std**2, MIN_BASELINE_STD**2)
        ratio = var / base_var
        out_of_band = ratio > self.variance_ratio or (
            ratio < 1.0 / self.variance_ratio
        )
        raised.extend(
            self._edge(
                "variance_shift",
                triggered=out_of_band,
                observed=ratio,
                expected=1.0,
                threshold=self.variance_ratio,
                n=n,
                message=(
                    f"{self.name}: window/baseline variance ratio "
                    f"{ratio:.3g} outside "
                    f"[1/{self.variance_ratio:g}, {self.variance_ratio:g}]"
                ),
            )
        )
        return raised

    def _edge(
        self,
        kind: str,
        triggered: bool,
        observed: float,
        expected: float,
        threshold: float,
        n: int,
        message: str,
    ) -> list[DriftAlert]:
        if not triggered:
            self._active.discard(kind)
            return []
        if kind in self._active:
            return []
        self._active.add(kind)
        alert = DriftAlert(
            monitor=self.name,
            kind=kind,
            observed=observed,
            expected=expected,
            threshold=threshold,
            window=n,
            message=message,
            request_id=current_request_id(),
        )
        self.alerts.append(alert)
        return [alert]

    def reset(self) -> None:
        """Clear the window, warmup and alert state (baseline is kept)."""
        self._values.clear()
        self._warmup = []
        self._active.clear()
        self.alerts.clear()


class DriftSuite:
    """A named collection of :class:`DriftMonitor` objects.

    Each :class:`~repro.serve.BatchAuthenticator` owns one suite for its
    bundle, parameterised by the bundle's
    :class:`repro.config.MonitoringConfig`, and the serving fan-out is
    the only code that feeds it.  Monitors are created on first use by
    name and share the suite's parameters.

    :meth:`observe` is safe to call while another thread reads
    :meth:`alerts` (the ``/drift`` endpoint does, from its HTTP thread).
    """

    def __init__(
        self,
        window: int = 64,
        min_samples: int = 16,
        mean_sigmas: float = 4.0,
        variance_ratio: float = 6.0,
    ) -> None:
        self.window = window
        self.min_samples = min_samples
        self.mean_sigmas = mean_sigmas
        self.variance_ratio = variance_ratio
        self._monitors: dict[str, DriftMonitor] = {}
        self._alerts: list[DriftAlert] = []
        self._lock = threading.Lock()

    def monitor(self, name: str) -> DriftMonitor:
        """Get or create the monitor registered under ``name``."""
        found = self._monitors.get(name)
        if found is None:
            found = DriftMonitor(
                name,
                window=self.window,
                min_samples=self.min_samples,
                mean_sigmas=self.mean_sigmas,
                variance_ratio=self.variance_ratio,
            )
            self._monitors[name] = found
        return found

    def monitors(self) -> list[DriftMonitor]:
        """All registered monitors in registration order."""
        return list(self._monitors.values())

    def observe(self, name: str, value: float) -> list[DriftAlert]:
        """Feed one observation into the named monitor.

        Returns the newly raised alerts, which the suite also appends
        to its raise-ordered :meth:`alerts`.
        """
        with self._lock:
            raised = self.monitor(name).observe(value)
            self._alerts.extend(raised)
        return raised

    def alerts(self) -> list[DriftAlert]:
        """Every alert :meth:`observe` raised so far, in raise order."""
        with self._lock:
            return list(self._alerts)

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable snapshot of all monitors."""
        return {
            "schema": SCHEMA_VERSION,
            "monitors": [
                {
                    "name": m.name,
                    "baseline": (
                        m.baseline.to_dict() if m.baseline else None
                    ),
                    "window_mean": m.window_stats()[0],
                    "window_variance": m.window_stats()[1],
                    "window_n": m.window_stats()[2],
                    "alerts": [a.to_dict() for a in m.alerts],
                }
                for m in self.monitors()
            ],
        }
