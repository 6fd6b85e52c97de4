"""Flight recorder: ring semantics, black-box dumps, thread safety."""

import json
import threading
import tracemalloc

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.obs.tracer import start_trace, trace


class TestRingSemantics:
    def test_request_ring_evicts_oldest(self):
        rec = FlightRecorder(max_requests=3)
        for i in range(5):
            rec.record_request(f"req-{i}", "ok")
        assert [r["request_id"] for r in rec.requests()] == [
            "req-2", "req-3", "req-4"
        ]

    def test_event_ring_evicts_oldest(self):
        rec = FlightRecorder(max_events=2)
        for i in range(4):
            rec.record_event("timeout", request_id=str(i))
        assert [e["request_id"] for e in rec.events()] == ["2", "3"]

    def test_limit_returns_newest(self):
        rec = FlightRecorder()
        for i in range(6):
            rec.record_request(f"req-{i}", "ok")
        assert [r["request_id"] for r in rec.requests(limit=2)] == [
            "req-4", "req-5"
        ]
        assert rec.requests(limit=0) == []

    def test_sequence_numbers_are_global_and_monotonic(self):
        rec = FlightRecorder()
        first = rec.record_request("a", "ok")
        event = rec.record_event("degradation", step="half_beeps")
        second = rec.record_request("b", "timeout")
        assert [first["seq"], event["seq"], second["seq"]] == [1, 2, 3]

    def test_rejects_degenerate_ring_sizes(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_requests=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_events=0)

    def test_clear_resets_totals(self):
        rec = FlightRecorder()
        rec.record_request("a", "ok")
        rec.record_event("timeout")
        rec.clear()
        doc = rec.to_dict()
        assert doc["total_requests"] == 0
        assert doc["total_events"] == 0
        assert doc["requests"] == [] and doc["events"] == []


class TestTraces:
    def test_live_trace_is_serialised(self):
        with start_trace() as t:
            with trace("authenticate", num_beeps=2):
                pass
        rec = FlightRecorder()
        rec.record_request("a", "ok", trace=t)
        (record,) = rec.requests()
        assert record["trace"]["spans"][0]["name"] == "authenticate"
        json.dumps(record)  # serialised on the way out
        json.dumps(rec.to_dict())

    def test_live_traces_are_kept_not_copied(self):
        # A full ring of served traces (25 spans each, like a 4-beep
        # attempt) must cost the ring its records, not a serialised
        # second copy of every trace the responses already hold.
        traces = []
        for _ in range(256):
            with start_trace() as t:
                for index in range(25):
                    with trace("stream.beep", beep_index=index):
                        pass
            traces.append(t)
        rec = FlightRecorder(max_requests=256)
        tracemalloc.start()
        try:
            for i, t in enumerate(traces):
                rec.record_request(f"req-{i}", "ok", latency_s=0.01, trace=t)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated < 0.5 * 2**20
        assert rec.requests()[-1]["trace"] == traces[-1].to_dict()

    def test_trace_dict_is_stored_as_is(self):
        rec = FlightRecorder()
        document = {"schema": SCHEMA_VERSION, "spans": []}
        assert rec.record_request("a", "ok", trace=document)["trace"] is (
            document
        )


class TestBlackBox:
    def test_document_is_versioned_and_counts_drops(self):
        rec = FlightRecorder(max_requests=2)
        for i in range(5):
            rec.record_request(f"req-{i}", "ok")
        doc = rec.to_dict()
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == "flight_recorder"
        assert doc["total_requests"] == 5
        assert doc["dropped_requests"] == 3
        assert len(doc["requests"]) == 2

    def test_dump_writes_file(self, tmp_path):
        rec = FlightRecorder()
        rec.record_request("a", "degraded", degradation="half_beeps")
        path = tmp_path / "box.json"
        assert rec.dump(str(path)) == str(path)
        doc = json.loads(path.read_text())
        assert doc["requests"][0]["degradation"] == "half_beeps"

    def test_dump_without_destination_raises(self):
        with pytest.raises(ValueError):
            FlightRecorder().dump()

    def test_auto_dump_without_path_is_noop(self):
        rec = FlightRecorder()
        assert rec.auto_dump("batch failed") is None
        assert rec.events() == []  # no dump event either

    def test_auto_dump_records_reason_then_writes(self, tmp_path):
        path = tmp_path / "box.json"
        rec = FlightRecorder(auto_dump_path=str(path))
        rec.record_request("req-7", "timeout", error="budget 0.1s")
        assert rec.auto_dump("batch timeout", request_ids=["req-7"]) == str(
            path
        )
        doc = json.loads(path.read_text())
        (event,) = doc["events"]
        assert event["kind"] == "dump"
        assert event["reason"] == "batch timeout"
        assert event["request_ids"] == ["req-7"]
        assert doc["requests"][0]["request_id"] == "req-7"

    def test_unwritable_auto_dump_is_recorded_not_raised(self, tmp_path):
        path = str(tmp_path / "missing" / "box.json")
        rec = FlightRecorder(auto_dump_path=path)
        assert rec.auto_dump("batch failed") is None
        dump, failed = rec.events()
        assert dump["kind"] == "dump"
        assert failed["kind"] == "dump_failed"
        assert failed["path"] == path
        assert "FileNotFoundError" in failed["error"]
        with pytest.raises(FileNotFoundError):
            rec.dump()  # an explicit dump still reports the fault


class TestThreadSafety:
    def test_concurrent_recording_keeps_exact_totals(self):
        rec = FlightRecorder(max_requests=64, max_events=64)

        def work(worker):
            for i in range(200):
                rec.record_request(f"w{worker}-{i}", "ok")
                rec.record_event("degradation", step="coarse_grid")

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        doc = rec.to_dict()
        assert doc["total_requests"] == 1600
        assert doc["total_events"] == 1600
        assert len(doc["requests"]) == 64
        seqs = [r["seq"] for r in doc["requests"]]
        assert seqs == sorted(seqs)


class TestDefaultRecorder:
    def test_swap_and_restore(self):
        mine = FlightRecorder()
        previous = set_flight_recorder(mine)
        try:
            assert get_flight_recorder() is mine
        finally:
            set_flight_recorder(previous)
        assert get_flight_recorder() is previous


class TestDropAccounting:
    def test_dropped_counts_in_black_box(self):
        rec = FlightRecorder(max_requests=2, max_events=2)
        for i in range(5):
            rec.record_request(f"req-{i}", "ok")
        for i in range(3):
            rec.record_event("timeout", request_id=str(i))
        doc = rec.to_dict()
        assert doc["dropped_requests"] == 3
        assert doc["dropped_events"] == 1

    def test_evictions_bump_the_dropped_counter_metric(self):
        from repro.obs import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            rec = FlightRecorder(max_requests=2, max_events=2)
            for i in range(5):
                rec.record_request(f"req-{i}", "ok")
            rec.record_event("timeout", request_id="x")
        finally:
            set_registry(previous)
        family = registry.get("echoimage_flight_dropped_total")
        assert family is not None
        totals = {
            labels["ring"]: child.value
            for labels, child in family.samples()
        }
        assert totals == {"requests": 3.0}  # event ring never filled

    def test_clear_resets_dropped_counts(self):
        rec = FlightRecorder(max_requests=1)
        rec.record_request("a", "ok")
        rec.record_request("b", "ok")
        assert rec.to_dict()["dropped_requests"] == 1
        rec.clear()
        assert rec.to_dict()["dropped_requests"] == 0
        assert rec.to_dict()["dropped_events"] == 0
