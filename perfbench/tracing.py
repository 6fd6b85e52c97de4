"""Outside-in tracing: timed wrappers around each layer's public calls.

Nothing under ``src/`` changes.  Spans are recorded around calls the
serving stack makes into objects the benchmark builds itself:

* ``BatchAuthenticator(pipeline_factory=...)`` wraps
  ``ModelBundle.build_pipeline``; on each pipeline it builds, the
  wrapper times ``authenticate``/``authenticate_streaming`` and the
  distance estimator, imager and feature extractor the pipeline owns;
* the authenticator instance's ``authenticate_batch`` /
  ``authenticate_streaming`` mark when the broker dispatches a batch;
* the observers (flight recorder, audit ledger, capture store,
  sentinel) are the benchmark's own instances;
* the authenticators' ``decide*``, ``DecisionStream.push`` and the CNN
  layers' ``forward`` are patched on their classes while tracing is on.

``repro.obs.current_request_id()`` (or the request id passed to an
observer) ties a request's spans together.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

from perfbench import stats


@dataclass
class Span:
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    #: Work units of the call: beeps, images or batch rows.
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Batch:
    """One broker dispatch: when, and which requests."""

    start: float
    end: float
    request_ids: tuple


def _kwarg_rid(args, kwargs):
    return kwargs.get("request_id")


def _first_arg_rid(args, kwargs):
    return kwargs.get("request_id", args[0] if args else None)


def _second_arg_rid(args, kwargs):
    return kwargs.get("request_id", args[1] if len(args) > 1 else None)


def _len_first(args, kwargs) -> int:
    return len(args[0]) if args else 0


def _layer_input(args, kwargs) -> tuple[str, int]:
    """CNN layer key (input ``CxHxW``) and batch size of ``forward``."""
    shape = args[1].shape
    return "x".join(str(d) for d in shape[1:]), int(shape[0])


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.batches: list[Batch] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, layer, name, fn, rid=None, size=None, keyed=None):
        """``fn`` recorded as a span while the tracer is enabled.

        ``rid`` extracts a request id from the call (falling back to the
        ambient correlation id), ``size`` its work units, and ``keyed``
        both a span name and the units (CNN layers, keyed by shape).
        """
        from repro.obs import current_request_id

        tracer = self

        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_name, units = name, 0
                if keyed is not None:
                    span_name, units = keyed(args, kwargs)
                elif size is not None:
                    units = size(args, kwargs)
                request_id = (rid(args, kwargs) if rid else None) or (
                    current_request_id()
                )
                tracer.spans.append(
                    Span(span_id, layer, span_name, start, end, parent,
                         request_id, units)
                )

        return timed

    def _wrap_attr(self, obj, attr: str, layer: str, **kw) -> None:
        setattr(obj, attr, self.wrap(layer, attr, getattr(obj, attr), **kw))

    # -- seams ---------------------------------------------------------

    def pipeline_factory(self):
        """A ``BatchAuthenticator`` pipeline factory that instruments."""

        def build(bundle, config, batched_imaging):
            pipeline = bundle.build_pipeline(
                config, batched_imaging=batched_imaging
            )
            for attr in ("authenticate", "authenticate_streaming"):
                self._wrap_attr(pipeline, attr, "pipeline", size=_len_first)
            self._wrap_attr(pipeline.distance_estimator, "estimate",
                            "distance", size=_len_first)
            for attr in ("image_batch", "images"):
                self._wrap_attr(pipeline.imager, attr, "imaging",
                                size=_len_first)
            self._wrap_attr(pipeline.feature_extractor, "extract",
                            "features", size=_len_first)
            return pipeline

        return build

    def instrument_authenticator(self, authenticator) -> None:
        """Record every batch the broker hands to the authenticator."""
        for attr in ("authenticate_batch", "authenticate_streaming"):
            inner = self.wrap("executor", attr, getattr(authenticator, attr),
                              size=_len_first)

            def dispatch(requests, *args, _inner=inner, **kwargs):
                if not self.enabled:
                    return _inner(requests, *args, **kwargs)
                batch = Batch(perf_counter(), 0.0,
                              tuple(r.request_id for r in requests))
                try:
                    return _inner(requests, *args, **kwargs)
                finally:
                    batch.end = perf_counter()
                    self.batches.append(batch)

            setattr(authenticator, attr, dispatch)

    def instrument_observers(self, observers) -> None:
        recorder = observers.recorder
        self._wrap_attr(recorder, "record_request", "obs.flight",
                        rid=_first_arg_rid)
        self._wrap_attr(recorder, "record_event", "obs.flight",
                        rid=_kwarg_rid)
        if observers.ledger is not None:
            self._wrap_attr(observers.ledger, "append", "obs.audit",
                            rid=_second_arg_rid)
        if observers.capture is not None:
            capture = observers.capture
            self._wrap_attr(capture, "record", "obs.capture",
                            rid=lambda a, k: a[0].request_id)
            self._wrap_attr(capture, "annotate", "obs.capture",
                            rid=_first_arg_rid)
            self._wrap_attr(capture, "ensure_bundle", "obs.capture")
        if observers.sentinel is not None:
            for attr in ("observe_auth", "observe_admission"):
                self._wrap_attr(observers.sentinel, attr, "obs.sentinel",
                                rid=_kwarg_rid)

    @staticmethod
    def _class_seams():
        from repro.core.authenticator import (
            DecisionStream,
            MultiUserAuthenticator,
            SingleUserAuthenticator,
        )
        from repro.ml.nn.layers import Conv2D, MaxPool2D, ReLU

        yield MultiUserAuthenticator, "decide_detailed", "authenticator.decide"
        yield SingleUserAuthenticator, "decide", "authenticator.decide"
        yield DecisionStream, "push", "authenticator.stream_push"
        for cls in (Conv2D, ReLU, MaxPool2D):
            yield cls, "forward", f"nn.{cls.__name__}"

    def start(self) -> None:
        """Patch the class-level seams and start recording."""
        for cls, attr, layer in self._class_seams():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            keyed = _layer_input if layer.startswith("nn.") else None
            setattr(cls, attr, self.wrap(layer, attr, original, keyed=keyed))
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Dump every span and batch as JSON (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [asdict(s) for s in self.spans],
                    "batches": [asdict(b) for b in self.batches],
                },
                handle,
            )


# -- per-layer metrics ---------------------------------------------------


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    words = name.rsplit(".", 1)[-1].split("_")
    if "ms" in words:
        return "ms"
    if words[-1] in ("ratio", "overhead"):
        return "ratio"
    return "count"


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def _self_time(span: Span, children: dict[int, list[Span]]) -> float:
    return stats.self_time(
        span.start, span.end,
        [(c.start, c.end) for c in children.get(span.id, ())],
    )


def _by_layer(spans: list[Span]) -> dict[str, list[Span]]:
    """Outermost spans per layer: a span nested in a span of its own
    layer (``image_batch`` falling back to ``images``) is not counted
    twice."""
    by_id = {s.id: s for s in spans}
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            grouped.setdefault(span.layer, []).append(span)
    return grouped


def conv_stage(key: str, input_size: int) -> int:
    """VGG stage (1-5) of a conv layer from its ``CxHxW`` input key."""
    side = int(key.split("x")[1])
    return 1 + int(round(math.log2(input_size / side)))


def layer_metrics(tracer: Tracer, open_sent, all_sent, input_size: int):
    """Per-layer metrics of one traced run.

    Waiting metrics (queue wait, pool wait, hold, batch size) come from
    the open-loop requests; work and cost metrics are per request over
    every traced request (open-loop and drain).
    """
    layers = _by_layer(tracer.spans)
    children = _children(tracer.spans)
    requests = len(all_sent)

    def total(layer: str) -> float:
        return sum(s.duration for s in layers.get(layer, ()))

    def units(layer: str) -> int:
        return sum(s.size for s in layers.get(layer, ()))

    def calls(layer: str) -> int:
        return len(layers.get(layer, ()))

    pipeline_of = {s.request_id: s for s in layers.get("pipeline", ())}
    dispatched = {
        rid: batch.start for batch in tracer.batches
        for rid in batch.request_ids
    }
    open_ids = {s.request_id for s in open_sent}
    statuses = [s.response.status for s in all_sent]
    m: dict[str, float] = {}

    # repro.serve.broker
    queue = [dispatched[s.request_id] - s.submitted for s in open_sent]
    m["broker.queue_wait_p50_ms"] = _ms(stats.median(queue))
    m["broker.queue_wait_p95_ms"] = _ms(stats.percentile(queue, 95.0))
    open_batches = [
        b for b in tracer.batches if open_ids.intersection(b.request_ids)
    ]
    m["broker.batch_size_mean"] = sum(
        len(b.request_ids) for b in open_batches
    ) / len(open_batches)
    m["broker.shed"] = float(statuses.count("shed"))

    # repro.serve.executor
    served = [s for s in open_sent if s.request_id in pipeline_of]
    pool_wait = [
        pipeline_of[s.request_id].start - dispatched[s.request_id]
        for s in served
    ]
    worker = [pipeline_of[s.request_id].duration for s in served]
    hold = [s.resolved - pipeline_of[s.request_id].end for s in served]
    m["executor.pool_wait_p50_ms"] = _ms(stats.median(pool_wait))
    m["executor.worker_p50_ms"] = _ms(stats.median(worker))
    m["executor.hold_p50_ms"] = _ms(stats.median(hold))
    m["executor.hold_p95_ms"] = _ms(stats.percentile(hold, 95.0))
    finalize = [
        b.end - max(pipeline_of[r].end for r in b.request_ids)
        for b in tracer.batches
        if all(r in pipeline_of for r in b.request_ids)
    ]
    m["executor.finalize_ms"] = _ms(stats.median(finalize))
    m["executor.degraded"] = float(statuses.count("degraded"))
    m["executor.timeouts"] = float(statuses.count("timeout"))
    m["executor.errors"] = float(statuses.count("error"))

    # repro.core.pipeline
    pipelines = layers.get("pipeline", [])
    m["pipeline.self_ms"] = _ms(
        sum(_self_time(s, children) for s in pipelines) / len(pipelines)
    )
    m["pipeline.beeps_used_ratio"] = sum(
        s.response.beeps_used for s in all_sent if s.response.ok
    ) / sum(s.beeps for s in all_sent if s.response.ok)

    # repro.core.distance
    m["distance.estimate_ms"] = _ms(total("distance") / requests)
    m["distance.ms_per_beep"] = _ms(total("distance") / units("distance"))

    # repro.core.imaging
    m["imaging.ms_per_request"] = _ms(total("imaging") / requests)
    m["imaging.ms_per_beep"] = _ms(total("imaging") / units("imaging"))
    m["imaging.beeps_per_call"] = units("imaging") / calls("imaging")

    # repro.core.features + repro.ml.nn (per image through the network)
    images = units("features")
    m["features.ms_per_request"] = _ms(total("features") / requests)
    m["features.ms_per_image"] = _ms(total("features") / images)
    m["features.images_per_call"] = images / calls("features")
    conv = [0.0] * 5
    for span in layers.get("nn.Conv2D", ()):
        conv[conv_stage(span.name, input_size) - 1] += span.duration
    for stage, seconds in enumerate(conv, start=1):
        m[f"nn.conv_s{stage}_ms"] = _ms(seconds / images)
    m["nn.pool_ms"] = _ms(total("nn.MaxPool2D") / images)
    m["nn.relu_ms"] = _ms(total("nn.ReLU") / images)

    # repro.core.authenticator
    m["authenticator.decide_ms"] = _ms(
        total("authenticator.decide") / requests
    )
    m["authenticator.stream_push_ms"] = _ms(
        total("authenticator.stream_push") / requests
    )
    m["authenticator.stream_pushes"] = (
        calls("authenticator.stream_push") / requests
    )

    # repro.obs
    observers = ("audit", "capture", "sentinel", "flight")
    for observer in observers:
        layer = f"obs.{observer}"
        m[f"{layer}_ms"] = _ms(total(layer) / requests)
        m[f"{layer}_calls"] = calls(layer) / requests
    m["obs.fanout_ms"] = sum(m[f"obs.{o}_ms"] for o in observers)
    return m


def self_time_table(tracer: Tracer, requests: int) -> dict[str, list]:
    """Per layer: calls, total ms, self ms and self ms per request."""
    children = _children(tracer.spans)
    rows: dict[str, list] = {}
    for span in tracer.spans:
        row = rows.setdefault(span.layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += _self_time(span, children)
    return {
        layer: [calls, _ms(total), _ms(own), _ms(own / requests)]
        for layer, (calls, total, own) in sorted(rows.items())
    }
