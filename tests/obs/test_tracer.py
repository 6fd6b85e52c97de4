"""Tests for the span tracer (repro.obs.tracer)."""

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    PipelineTrace,
    Span,
    add_sink,
    current_trace,
    ensure_trace,
    remove_sink,
    start_trace,
    trace,
)


class TestSpan:
    def test_attributes_via_set_and_update(self):
        span = Span("stage")
        span.set("key", 1)
        span.update(other=2, third="x")
        assert span.attributes == {"key": 1, "other": 2, "third": "x"}

    def test_iter_spans_depth_first(self):
        root = Span("a", children=[Span("b", children=[Span("c")]), Span("d")])
        assert [s.name for s in root.iter_spans()] == ["a", "b", "c", "d"]

    def test_dict_round_trip(self):
        root = Span(
            "a",
            started_s=0.5,
            duration_s=1.25,
            attributes={"bytes": 7},
            children=[Span("b")],
        )
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt == root


class TestTraceNesting:
    def test_nested_spans_build_a_tree(self):
        with start_trace() as collected:
            with trace("outer", items=2) as outer:
                with trace("inner.first"):
                    pass
                with trace("inner.second"):
                    with trace("leaf"):
                        pass
                outer.set("result", "ok")
            with trace("sibling"):
                pass
        assert [s.name for s in collected.spans] == ["outer", "sibling"]
        outer_span = collected.spans[0]
        assert [c.name for c in outer_span.children] == [
            "inner.first",
            "inner.second",
        ]
        assert outer_span.children[1].children[0].name == "leaf"
        assert outer_span.attributes == {"items": 2, "result": "ok"}

    def test_durations_are_positive_and_contain_children(self):
        with start_trace() as collected:
            with trace("outer"):
                with trace("inner"):
                    sum(range(1000))
        outer, inner = collected.spans[0], collected.spans[0].children[0]
        assert inner.duration_s > 0.0
        assert outer.duration_s >= inner.duration_s
        assert outer.started_s <= inner.started_s

    def test_span_without_trace_is_noop(self):
        with trace("orphan") as span:
            assert span is NULL_SPAN
            span.set("ignored", 1)  # must not raise
            span.update(also=2)

    def test_exception_still_closes_span(self):
        with pytest.raises(RuntimeError):
            with start_trace() as collected:
                with trace("failing"):
                    raise RuntimeError("boom")
        assert collected.spans[0].name == "failing"
        assert collected.spans[0].duration_s >= 0.0

    def test_traces_do_not_nest(self):
        with start_trace() as outer_trace:
            with trace("outer.span"):
                with start_trace() as inner_trace:
                    with trace("inner.span"):
                        pass
        assert outer_trace.span_names() == {"outer.span"}
        assert inner_trace.span_names() == {"inner.span"}

    def test_threads_collect_separately(self):
        seen = {}

        def worker(tag):
            with start_trace() as t:
                with trace(f"stage.{tag}"):
                    pass
            seen[tag] = t

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag, collected in seen.items():
            assert collected.span_names() == {f"stage.{tag}"}


class TestEnsureTrace:
    def test_opens_trace_when_none_active(self):
        captured = []
        add_sink(captured.append)
        try:
            with ensure_trace() as opened:
                assert current_trace() is opened
                with trace("standalone"):
                    pass
        finally:
            remove_sink(captured.append)
        assert len(captured) == 1
        assert captured[0].span_names() == {"standalone"}

    def test_reuses_ambient_trace(self):
        with start_trace() as ambient:
            with ensure_trace() as seen:
                assert seen is ambient


class TestSinks:
    def test_sink_sees_every_completed_trace(self):
        captured = []
        add_sink(captured.append)
        try:
            for _ in range(3):
                with start_trace():
                    with trace("stage"):
                        pass
        finally:
            remove_sink(captured.append)
        assert len(captured) == 3

    def test_remove_sink_is_idempotent(self):
        sink = lambda t: None  # noqa: E731
        add_sink(sink)
        remove_sink(sink)
        remove_sink(sink)  # must not raise


class TestPipelineTrace:
    def make_trace(self):
        with start_trace() as collected:
            with trace("a", bytes=10):
                with trace("b"):
                    pass
            with trace("a"):
                pass
        return collected

    def test_find_and_span_names(self):
        collected = self.make_trace()
        assert collected.span_names() == {"a", "b"}
        assert len(collected.find("a")) == 2
        assert collected.find("missing") == []

    def test_total_duration_sums_top_level_only(self):
        t = PipelineTrace(
            [
                Span("a", duration_s=1.0, children=[Span("b", duration_s=0.4)]),
                Span("c", duration_s=0.5),
            ]
        )
        assert t.total_duration_s == pytest.approx(1.5)

    def test_json_round_trip(self):
        collected = self.make_trace()
        rebuilt = PipelineTrace.from_json(collected.to_json())
        assert rebuilt.to_dict() == collected.to_dict()
        assert rebuilt.find("a")[0].attributes["bytes"] == 10

    def test_format_lists_every_span(self):
        collected = self.make_trace()
        rendered = collected.format()
        assert rendered.count("a ") >= 1
        for name in collected.span_names():
            assert name in rendered
        assert "ms" in rendered
        assert "bytes=10" in rendered

    def test_empty_trace_is_falsy(self):
        assert not PipelineTrace()
        assert self.make_trace()
