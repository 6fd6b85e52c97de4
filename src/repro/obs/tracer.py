"""Span-based pipeline tracing.

The tracer answers one question: *where did this authentication attempt
spend its time?*  It is deliberately tiny — a :class:`Span` records the
wall time, call count and arbitrary key/value attributes of one pipeline
stage, and a :class:`PipelineTrace` holds the tree of spans of one
attempt.

Usage is two context managers:

* :func:`start_trace` opens a collecting trace (the pipeline facade does
  this once per ``authenticate``/``enroll`` call);
* :func:`trace` opens a span inside the active trace.  When no trace is
  active the span machinery short-circuits to a shared no-op object, so
  instrumented library code pays essentially nothing when nobody is
  looking.

The active trace is tracked per thread (``threading.local``), so
concurrent attempts on different threads collect into separate traces.

Every completed trace goes to the registered sinks (:func:`add_sink`).
One sink, :func:`repro.obs.telemetry.record_trace`, is always registered:
it derives every pipeline metric from the values the stages put on their
spans, so tracing is always on.

Example:
    >>> from repro.obs import start_trace, trace
    >>> with start_trace() as t:
    ...     with trace("stage.outer", items=2) as outer:
    ...         with trace("stage.inner"):
    ...             pass
    ...         outer.set("result", "ok")
    >>> [s.name for s in t.iter_spans()]
    ['stage.outer', 'stage.inner']
    >>> t.find("stage.outer")[0].attributes["items"]
    2
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.correlation import current_request_id
from repro.obs.metrics import SCHEMA_VERSION

#: Attribute-key prefix under which :meth:`Span.record_digest` stamps
#: stage-output digests (``digest.<stage>``).
DIGEST_PREFIX = "digest."


def digest_value(value) -> str:
    """A short stable content digest of a stage output.

    Arrays are hashed over dtype, shape and contiguous bytes, so two
    arrays digest equal iff they are bitwise identical with the same
    layout metadata; lists/tuples hash element-wise with bracketing so
    nesting is unambiguous; everything else hashes its ``repr``.  The
    16-hex-character (64-bit) prefix keeps span attributes and capture
    indices light while staying far beyond collision reach for the
    per-request stage counts involved.
    """
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()[:16]


def _feed(hasher, value) -> None:
    # Imported lazily: the tracer itself must stay importable (and
    # cheap) in contexts that never touch array payloads.
    import numpy as np

    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        hasher.update(b"ndarray:")
        hasher.update(str(array.dtype).encode("utf-8"))
        hasher.update(str(array.shape).encode("utf-8"))
        hasher.update(array.tobytes())
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[")
        for item in value:
            _feed(hasher, item)
            hasher.update(b",")
        hasher.update(b"]")
    elif isinstance(value, bytes):
        hasher.update(b"bytes:")
        hasher.update(value)
    elif isinstance(value, str):
        hasher.update(b"str:")
        hasher.update(value.encode("utf-8"))
    else:
        hasher.update(b"repr:")
        hasher.update(repr(value).encode("utf-8"))


@dataclass
class Span:
    """One timed region of the pipeline.

    Attributes:
        name: Stage name, dot-separated by convention (e.g.
            ``"imaging.band"``).
        started_s: Start time relative to the start of the enclosing
            trace, in seconds.
        duration_s: Wall time spent inside the span.
        attributes: Arbitrary key/value annotations (``set`` to add).
        children: Spans opened while this span was the innermost one.
    """

    name: str
    started_s: float = 0.0
    duration_s: float = 0.0
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def update(self, **attributes) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def record_digest(self, stage: str, value) -> str:
        """Digest a stage output and stamp it as ``digest.<stage>``.

        The capture/replay layer (:mod:`repro.obs.capture`) uses this to
        fingerprint each stage's output inside the trace itself, so a
        replay can name the first diverging stage without shipping the
        arrays.  Returns the digest so callers can index it elsewhere.
        """
        digest = digest_value(value)
        self.attributes[DIGEST_PREFIX + stage] = digest
        return digest

    def digests(self) -> dict:
        """Stage digests recorded on this span, keyed by stage name."""
        return {
            key[len(DIGEST_PREFIX):]: value
            for key, value in self.attributes.items()
            if key.startswith(DIGEST_PREFIX)
        }

    def iter_spans(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict:
        """JSON-serialisable representation (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "started_s": self.started_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            started_s=data["started_s"],
            duration_s=data["duration_s"],
            attributes=dict(data.get("attributes", {})),
            children=[
                cls.from_dict(child) for child in data.get("children", [])
            ],
        )


class _NullSpan:
    """Shared do-nothing span yielded when no trace is collecting."""

    __slots__ = ()

    def set(self, key: str, value) -> None:  # pragma: no cover - trivial
        pass

    def update(self, **attributes) -> None:  # pragma: no cover - trivial
        pass

    def record_digest(self, stage: str, value) -> str:
        # No trace collecting: skip the hash entirely — this is what
        # keeps record_digest free on the untraced hot path.
        return ""


NULL_SPAN = _NullSpan()


class PipelineTrace:
    """The span tree of one pipeline invocation.

    Attributes:
        spans: Top-level spans in the order they were opened.
        request_id: The correlation id of the request the trace belongs
            to, when the trace was collected inside a
            :func:`repro.obs.correlation.correlation_scope`; ``None``
            for uncorrelated traces.  Survives JSON round-trips, so the
            flight recorder, the ``/traces`` endpoint and replayed
            worker traces all carry the same handle as the audit
            ledger.

    Example:
        >>> from repro.obs import PipelineTrace, Span
        >>> t = PipelineTrace()
        >>> t.spans.append(Span("distance.estimate", duration_s=0.25))
        >>> round(t.total_duration_s, 2)
        0.25
        >>> PipelineTrace.from_json(t.to_json()).find("distance.estimate")[
        ...     0].duration_s
        0.25
    """

    def __init__(
        self,
        spans: list[Span] | None = None,
        request_id: str | None = None,
    ) -> None:
        self.spans: list[Span] = list(spans or [])
        self.request_id = request_id

    def __bool__(self) -> bool:
        return bool(self.spans)

    def iter_spans(self):
        """Every span in the trace, depth-first."""
        for span in self.spans:
            yield from span.iter_spans()

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in depth-first order."""
        return [span for span in self.iter_spans() if span.name == name]

    def span_names(self) -> set[str]:
        """The distinct span names present in the trace."""
        return {span.name for span in self.iter_spans()}

    @property
    def total_duration_s(self) -> float:
        """Summed wall time of the top-level spans."""
        return float(sum(span.duration_s for span in self.spans))

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole trace.

        Carries a ``"schema"`` version field so downstream consumers can
        detect format changes; :meth:`from_dict` accepts any document
        whose version it understands.
        """
        return {
            "schema": SCHEMA_VERSION,
            "request_id": self.request_id,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(
            [Span.from_dict(s) for s in data.get("spans", [])],
            request_id=data.get("request_id"),
        )

    def to_json(self, **kwargs) -> str:
        """The trace as a JSON document (round-trips via
        :meth:`from_json`)."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, document: str) -> "PipelineTrace":
        """Parse a trace serialised with :meth:`to_json`."""
        return cls.from_dict(json.loads(document))

    # -- rendering -----------------------------------------------------

    def format(self) -> str:
        """Human-readable indented tree of spans with durations."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = ""
            if span.attributes:
                inner = ", ".join(
                    f"{k}={_fmt_value(v)}"
                    for k, v in span.attributes.items()
                )
                attrs = f"  [{inner}]"
            lines.append(
                f"{'  ' * depth}{span.name:<{32 - 2 * min(depth, 8)}} "
                f"{span.duration_s * 1e3:9.3f} ms{attrs}"
            )
            for child in span.children:
                walk(child, depth + 1)

        for span in self.spans:
            walk(span, 0)
        return "\n".join(lines)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class _TraceState(threading.local):
    """Per-thread tracer state: the trace stack and the open-span stack."""

    def __init__(self) -> None:
        self.traces: list[tuple[PipelineTrace, float]] = []
        self.spans: list[list[Span]] = []


_STATE = _TraceState()
_SINK_LOCK = threading.Lock()
_SINKS: list = []


def _forget_sinks_after_fork() -> None:
    # A forked child (a ``process`` serving worker) must not call the
    # parent's sinks on its copies: the parent sees the child's traces
    # only when they are shipped home and re-emitted there.
    global _SINK_LOCK
    _SINK_LOCK = threading.Lock()
    _SINKS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_sinks_after_fork)


def current_trace() -> PipelineTrace | None:
    """The innermost collecting trace of this thread, if any."""
    if not _STATE.traces:
        return None
    return _STATE.traces[-1][0]


def add_sink(sink) -> None:
    """Register ``sink(trace)`` to be called for every completed trace.

    Sinks observe every :func:`start_trace` region that finishes on any
    thread — this is how :class:`repro.obs.Profiler` aggregates across
    attempts without threading a collector through the pipeline API,
    and how :func:`repro.obs.telemetry.record_trace` derives the
    pipeline metrics.  A forked child process starts with no sinks.
    """
    with _SINK_LOCK:
        _SINKS.append(sink)


def remove_sink(sink) -> None:
    """Unregister a sink added with :func:`add_sink` (idempotent)."""
    with _SINK_LOCK:
        try:
            _SINKS.remove(sink)
        except ValueError:
            pass


def _notify_sinks(completed: PipelineTrace) -> None:
    with _SINK_LOCK:
        sinks = list(_SINKS)
    for sink in sinks:
        sink(completed)


def emit_trace(completed: PipelineTrace) -> None:
    """Deliver an already-completed trace to every registered sink.

    The serving layer uses this to *replay* traces that were collected
    in a worker process: the worker ships each completed trace back
    with the response, and the parent emits it here so sinks (the
    metrics sink, a :class:`repro.obs.Profiler`) observe exactly what
    they would have seen had the attempt run in-process.
    """
    _notify_sinks(completed)


@contextmanager
def start_trace():
    """Open a new collecting :class:`PipelineTrace` on this thread.

    Traces do not nest into each other: a ``start_trace`` inside another
    simply collects its own spans (the pipeline attaches a fresh trace to
    every :class:`~repro.core.pipeline.AuthenticationResult`).  On exit
    the completed trace is delivered to every registered sink.

    When an ambient correlation id is active
    (:func:`repro.obs.correlation.correlation_scope`), the trace is
    stamped with it — on entry and again on exit, so a scope opened
    between the two still correlates the trace.
    """
    collected = PipelineTrace(request_id=current_request_id())
    _STATE.traces.append((collected, time.perf_counter()))
    _STATE.spans.append([])
    try:
        yield collected
    finally:
        _STATE.traces.pop()
        _STATE.spans.pop()
        if collected.request_id is None:
            collected.request_id = current_request_id()
        _notify_sinks(collected)


@contextmanager
def ensure_trace():
    """Open a collecting trace only when none is active on this thread.

    Stage entry points (``DistanceEstimator.estimate``,
    ``AcousticImager.image``, ...) wrap themselves in this so that a
    standalone call — outside the pipeline facade — still produces a
    trace for any installed sink; inside ``authenticate`` the ambient
    trace is reused and no extra trace is emitted.
    """
    if _STATE.traces:
        yield _STATE.traces[-1][0]
        return
    with start_trace() as opened:
        yield opened


@contextmanager
def trace(name: str, **attributes):
    """Open a span named ``name`` inside the active trace.

    Args:
        name: Stage name recorded on the span.
        **attributes: Initial key/value attributes.

    Yields:
        The live :class:`Span` (call ``set``/``update`` to annotate it),
        or a shared no-op span when no trace is collecting on this
        thread.
    """
    if not _STATE.traces:
        yield NULL_SPAN
        return
    active, origin = _STATE.traces[-1]
    stack = _STATE.spans[-1]
    started = time.perf_counter()
    span = Span(
        name=name, started_s=started - origin, attributes=dict(attributes)
    )
    rid = current_request_id()
    if rid is not None and "request_id" not in span.attributes:
        span.attributes["request_id"] = rid
    if stack:
        stack[-1].children.append(span)
    else:
        active.spans.append(span)
    stack.append(span)
    try:
        yield span
    finally:
        stack.pop()
        span.duration_s = time.perf_counter() - started
