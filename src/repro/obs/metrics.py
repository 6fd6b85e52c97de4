"""Dependency-free metrics: counters, gauges and histograms.

Where :mod:`repro.obs.tracer` answers *where did this attempt spend its
time*, the metrics registry answers *how is the deployed system doing* —
accept/reject rates, echo SNR, SVDD score distributions — as monotonically
growing counters, last-value gauges and fixed-bucket histograms that a
scraper can poll.  Everything is plain stdlib (``threading`` + ``json``)
so the registry works wherever the tracer does.

Three layers:

* metric primitives (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
  — lock-protected value holders;
* :class:`MetricFamily` — a named metric plus its label dimension; calling
  :meth:`MetricFamily.labels` returns the child for one label combination;
* :class:`MetricsRegistry` — the named collection with idempotent
  registration, Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`)
  and a versioned JSON export (:meth:`MetricsRegistry.to_dict`, carrying
  ``"schema": 1``).

A process-wide default registry (:func:`get_registry`) is what the
trace sink of :mod:`repro.obs.telemetry` and the serving fan-out record
into; swap it with :func:`set_registry` to isolate runs.

Example:
    >>> from repro.obs.metrics import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> attempts = reg.counter("attempts_total", "attempts", labels=("result",))
    >>> attempts.labels(result="accept").inc()
    >>> scores = reg.histogram("score", "scores", buckets=(0.0, 1.0))
    >>> scores.observe(0.4)
    >>> 'attempts_total{result="accept"} 1' in reg.render_prometheus()
    True
"""

from __future__ import annotations

import json
import re
import threading
from typing import Iterable, Sequence

#: Version stamp carried by every metrics JSON export.
SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus'
#: classic spread); domain metrics pass their own buckets.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Raised on invalid metric names, labels or conflicting registration."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names in {names}")
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise MetricError(f"invalid label name {label!r}")
    return names


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value.

    Example:
        >>> c = Counter()
        >>> c.inc(); c.inc(2.5); c.value
        3.5
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (last observation wins).

    Example:
        >>> g = Gauge()
        >>> g.set(2.0); g.inc(0.5); g.dec(1.0); g.value
        1.5
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    An observation lands in the first bucket whose upper bound is
    ``>= value`` (bounds are inclusive); every histogram implicitly ends
    with a ``+Inf`` bucket, so no observation is ever dropped.

    Example:
        >>> h = Histogram((1.0, 2.0))
        >>> for v in (0.5, 1.0, 1.5, 99.0):
        ...     h.observe(v)
        >>> h.cumulative_counts()      # le=1, le=2, le=+Inf
        (2, 3, 4)
        >>> h.count, h.sum
        (4, 102.0)
        >>> h.quantile(50.0)           # estimated median (interpolated)
        1.0
    """

    __slots__ = (
        "_bucket_counts", "_count", "_exemplar", "_lock", "_sum", "bounds",
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"bucket bounds must strictly increase: {bounds}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]
            if not bounds:
                raise MetricError("histogram needs a finite bucket bound")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0
        self._exemplar: dict | None = None

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        """Record one observation.

        Args:
            value: The observed value.
            exemplar: Optional JSON-serialisable correlation context
                (conventionally ``{"request_id": ..., "value": ...}``)
                retained last-write-wins and surfaced by
                :meth:`MetricsRegistry.to_dict` — never by the
                Prometheus text exposition, which stays byte-stable.
        """
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplar = dict(exemplar)

    @property
    def exemplar(self) -> dict | None:
        """The most recent exemplar recorded via :meth:`observe`."""
        with self._lock:
            return dict(self._exemplar) if self._exemplar else None

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` bucket last."""
        with self._lock:
            return tuple(self._bucket_counts)

    def cumulative_counts(self) -> tuple[int, ...]:
        """Cumulative counts as exposed by Prometheus ``_bucket`` series."""
        counts = self.bucket_counts()
        total = 0
        out = []
        for c in counts:
            total += c
            out.append(total)
        return tuple(out)

    def quantile(self, q: float) -> float | None:
        """Estimated percentile ``q`` in [0, 100] from the bucket counts.

        Uses the same linear-interpolation convention as
        :func:`repro.obs.report.percentile` — the target rank is
        ``q/100 * (count - 1)`` — but, lacking the raw observations,
        assumes values spread uniformly inside each bucket.  Estimates
        clamp to the outermost finite bounds: ranks landing in the first
        bucket report its upper bound, ranks landing in the ``+Inf``
        bucket report the largest finite bound.

        Returns:
            The estimate, or ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricError(f"percentile must lie in [0, 100], got {q}")
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
        if total == 0:
            return None
        rank = (q / 100.0) * (total - 1)
        cumulative = 0
        for i, c in enumerate(counts):
            before = cumulative
            cumulative += c
            if rank < cumulative or cumulative == total:
                if c == 0:
                    continue
                if i == 0 or i == len(self.bounds):
                    # First bucket (no lower bound) or +Inf bucket (no
                    # upper bound): clamp to the nearest finite bound.
                    return float(self.bounds[min(i, len(self.bounds) - 1)])
                lower, upper = self.bounds[i - 1], self.bounds[i]
                fraction = min(1.0, max(0.0, (rank - before) / c))
                return float(lower + fraction * (upper - lower))
        return float(self.bounds[-1])  # pragma: no cover - defensive

    def estimate_count_le(self, value: float) -> float:
        """Estimated observations ``<= value``, interpolated in-bucket.

        Exact whenever ``value`` coincides with a bucket bound (this is
        how the SLO tracker computes latency compliance — align the
        latency objective with a bucket bound for exact accounting);
        otherwise assumes a uniform spread inside the straddled bucket.
        Observations in the ``+Inf`` bucket count only when ``value`` is
        infinite.
        """
        value = float(value)
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
        if value == float("inf"):
            return float(total)
        covered = 0.0
        lower = None
        for i, bound in enumerate(self.bounds):
            if value >= bound:
                covered += counts[i]
            else:
                if lower is not None and value > lower:
                    fraction = (value - lower) / (bound - lower)
                    covered += fraction * counts[i]
                break
            lower = bound
        return covered


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labelled children.

    Families are created through the registry (:meth:`MetricsRegistry.counter`
    and friends), never directly.  A family without label names acts as its
    single child: ``family.inc()`` / ``family.set()`` / ``family.observe()``
    proxy to the unlabelled child.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.kind = kind
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **label_values):
        """The child metric for one label combination (created on demand).

        Args:
            **label_values: One value per registered label name (values are
                stringified).

        Returns:
            The :class:`Counter` / :class:`Gauge` / :class:`Histogram`
            child.
        """
        if set(label_values) != set(self.label_names):
            raise MetricError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def samples(self) -> list[tuple[dict, object]]:
        """``(label_dict, child)`` pairs in creation order."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.label_names, key)), child) for key, child in items
        ]

    def clear(self) -> None:
        """Drop all children (registration survives, values reset)."""
        with self._lock:
            self._children.clear()

    # -- unlabelled convenience proxies --------------------------------

    def _solo(self):
        if self.label_names:
            raise MetricError(
                f"{self.name} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the unlabelled child (label-less families only)."""
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        """``set`` on the unlabelled child (label-less families only)."""
        self._solo().set(value)

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the unlabelled child (label-less families only)."""
        self._solo().dec(amount)

    def observe(self, value: float) -> None:
        """``observe`` on the unlabelled child (label-less families only)."""
        self._solo().observe(value)

    @property
    def value(self) -> float:
        """Value of the unlabelled child (label-less families only)."""
        return self._solo().value


class MetricsRegistry:
    """A named collection of metric families.

    Registration is idempotent: asking for an existing name with the same
    kind/labels/buckets returns the existing family, while a conflicting
    re-registration raises :class:`MetricError` — so module-level
    instrumentation can run against any registry without bookkeeping.

    Example:
        >>> reg = MetricsRegistry()
        >>> reg.counter("a_total", "help").inc()
        >>> reg.counter("a_total", "help").value    # same family
        1.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        label_names = _check_labels(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.kind != kind
                    or existing.label_names != label_names
                    or (
                        kind == "histogram"
                        and buckets is not None
                        and existing.buckets != tuple(buckets)
                    )
                ):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}"
                    )
                return existing
            family = MetricFamily(kind, name, help, label_names, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._register("counter", name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._register("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Get or create a histogram family with fixed bucket bounds."""
        return self._register("histogram", name, help, labels, buckets)

    def families(self) -> list[MetricFamily]:
        """Registered families in registration order."""
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Zero every family's children (registrations survive)."""
        for family in self.families():
            family.clear()

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Families registered but never observed are listed with their
        ``HELP``/``TYPE`` headers only, so a scrape always shows the full
        metric catalogue.
        """
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_dict, child in family.samples():
                if family.kind == "histogram":
                    lines.extend(
                        _histogram_lines(family.name, label_dict, child)
                    )
                else:
                    lines.append(
                        f"{family.name}{_label_text(label_dict)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable snapshot (``"schema": 1``).

        Carries the :func:`~repro.obs.envinfo.environment_fingerprint`
        of the producing process, so dumps from different machines or
        commits stay comparable.
        """
        from repro.obs.envinfo import environment_fingerprint

        metrics = []
        for family in self.families():
            entry: dict = {
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": [],
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets or DEFAULT_BUCKETS)
            for label_dict, child in family.samples():
                if family.kind == "histogram":
                    entry["samples"].append(
                        {
                            "labels": label_dict,
                            "bucket_counts": list(child.bucket_counts()),
                            "sum": child.sum,
                            "count": child.count,
                            "quantiles": {
                                "p50": child.quantile(50.0),
                                "p95": child.quantile(95.0),
                                "p99": child.quantile(99.0),
                            },
                            "exemplar": child.exemplar,
                        }
                    )
                else:
                    entry["samples"].append(
                        {"labels": label_dict, "value": child.value}
                    )
            metrics.append(entry)
        return {
            "schema": SCHEMA_VERSION,
            "environment": environment_fingerprint(),
            "metrics": metrics,
        }

    def to_json(self, **kwargs) -> str:
        """The :meth:`to_dict` snapshot as a JSON document."""
        return json.dumps(self.to_dict(), **kwargs)


def _label_text(label_dict: dict) -> str:
    if not label_dict:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in label_dict.items()
    )
    return "{" + inner + "}"


def _histogram_lines(
    name: str, label_dict: dict, hist: Histogram
) -> Iterable[str]:
    cumulative = hist.cumulative_counts()
    bounds = [*hist.bounds, float("inf")]
    for bound, count in zip(bounds, cumulative):
        labels = dict(label_dict)
        labels["le"] = _format_value(bound)
        yield f"{name}_bucket{_label_text(labels)} {count}"
    yield f"{name}_sum{_label_text(label_dict)} {_format_value(hist.sum)}"
    yield f"{name}_count{_label_text(label_dict)} {hist.count}"


# -- process-wide default registry -------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the pipeline records into."""
    with _DEFAULT_LOCK:
        return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    Tests and batch drivers use this to collect into a fresh registry
    without clearing another consumer's totals.
    """
    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        previous = _DEFAULT_REGISTRY
        _DEFAULT_REGISTRY = registry
        return previous
