"""Always-on flight recorder: a black box for the serving layer.

Traces and metrics answer *what happened on average*; the flight
recorder answers *what exactly happened just before things went wrong*.
It is a bounded, thread-safe ring buffer that retains

* the last N **completed request records** — request id, outcome,
  latency, degradation step and the request's
  :class:`~repro.obs.tracer.PipelineTrace`, kept as recorded and
  serialised only when the records are read;
* the last M **structured events** — timeouts, degradations, worker
  errors, drift alerts, dump triggers.

Recording is cheap (a dict append under a lock), so the recorder stays
installed in production: when a batch fails or times out, the serving
layer calls :meth:`FlightRecorder.auto_dump` and the recent history is
written as a versioned JSON *black-box file* (``"schema": 1``) that
``scripts/obs_dump.py`` pretty-prints and the ``/traces`` endpoint of
:class:`repro.obs.server.ObservabilityServer` serves live.

A process-wide default recorder (:func:`get_flight_recorder`) is what
the serving layer records into by default; swap it with
:func:`set_flight_recorder` to isolate runs.

Example:
    >>> from repro.obs.flight import FlightRecorder
    >>> rec = FlightRecorder(max_requests=2)
    >>> for i in range(3):
    ...     _ = rec.record_request(f"req-{i}", "ok", latency_s=0.1)
    >>> [r["request_id"] for r in rec.requests()]   # bounded: oldest gone
    ['req-1', 'req-2']
    >>> rec.record_event("timeout", request_id="req-9")["kind"]
    'timeout'
    >>> rec.to_dict()["schema"]
    1
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from repro.obs.metrics import SCHEMA_VERSION
from repro.obs.telemetry import pipeline_metrics
from repro.obs.tracer import PipelineTrace


class FlightRecorder:
    """Bounded ring buffer of recent request records and events.

    Args:
        max_requests: Retained completed-request records (oldest evicted
            first).
        max_events: Retained structured events.
        auto_dump_path: When set, :meth:`auto_dump` writes the black-box
            file here; when ``None`` auto dumps are skipped (on-demand
            :meth:`dump` still works with an explicit path).

    All methods are thread-safe; the serving layer records from the
    batch driver thread while the observability server reads from HTTP
    handler threads.
    """

    def __init__(
        self,
        max_requests: int = 256,
        max_events: int = 512,
        auto_dump_path: str | None = None,
    ) -> None:
        if max_requests < 1 or max_events < 1:
            raise ValueError("ring-buffer sizes must be >= 1")
        self.max_requests = max_requests
        self.max_events = max_events
        self.auto_dump_path = auto_dump_path
        self._lock = threading.Lock()
        self._requests: deque[dict] = deque(maxlen=max_requests)
        self._events: deque[dict] = deque(maxlen=max_events)
        self._seq = 0
        self._total_requests = 0
        self._total_events = 0
        self._dropped_requests = 0
        self._dropped_events = 0

    def _count_drop(self, ring: str) -> None:
        """Ring eviction is no longer silent: bump the dropped counter."""
        pipeline_metrics().flight_dropped.labels(ring=ring).inc()

    # -- recording -----------------------------------------------------

    def record_request(
        self,
        request_id: str,
        status: str,
        latency_s: float | None = None,
        degradation: str | None = None,
        error: str | None = None,
        trace: PipelineTrace | dict | None = None,
    ) -> dict:
        """Retain one completed request's decision context.

        Args:
            request_id: The served request's identifier.
            status: Outcome status (``ok``/``degraded``/``error``/
                ``timeout``).
            latency_s: Worker-side wall time, when known.
            degradation: Degradation step taken, if any.
            error: Terminal error description for failed requests.
            trace: The request's span tree — a completed
                :class:`PipelineTrace` or its ``to_dict()`` form.  A
                live trace is kept as is (it is usually alive on the
                response anyway) and serialised only when the record is
                read, by :meth:`requests`, :meth:`to_dict` and dumps.

        Returns:
            The stored record (also kept in the ring buffer), holding
            ``trace`` as passed.
        """
        record = {
            "request_id": request_id,
            "status": status,
            "latency_s": latency_s,
            "degradation": degradation,
            "error": error,
            "trace": trace,
        }
        with self._lock:
            self._seq += 1
            self._total_requests += 1
            record["seq"] = self._seq
            record["recorded_at"] = time.time()
            dropped = len(self._requests) == self.max_requests
            if dropped:
                self._dropped_requests += 1
            self._requests.append(record)
        if dropped:
            self._count_drop("requests")
        return record

    def record_event(self, kind: str, **details) -> dict:
        """Retain one structured event (timeout, drift alert, crash, …).

        Args:
            kind: Event kind, e.g. ``"timeout"``, ``"degradation"``,
                ``"worker_error"``, ``"drift_alert"``, ``"dump"``.
            **details: Arbitrary JSON-serialisable context.

        Returns:
            The stored event (also kept in the ring buffer).
        """
        event = {"kind": kind, **details}
        with self._lock:
            self._seq += 1
            self._total_events += 1
            event["seq"] = self._seq
            event["recorded_at"] = time.time()
            dropped = len(self._events) == self.max_events
            if dropped:
                self._dropped_events += 1
            self._events.append(event)
        if dropped:
            self._count_drop("events")
        return event

    # -- reading -------------------------------------------------------

    def requests(self, limit: int | None = None) -> list[dict]:
        """The retained request records, oldest first (newest ``limit``).

        Every returned record is JSON-serialisable: live traces are
        serialised here, into copies of their records.
        """
        with self._lock:
            records = list(self._requests)
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return [
            {**record, "trace": record["trace"].to_dict()}
            if isinstance(record["trace"], PipelineTrace)
            else record
            for record in records
        ]

    def events(
        self, limit: int | None = None, kind: str | None = None
    ) -> list[dict]:
        """The retained events, oldest first.

        Args:
            limit: Keep only the newest ``limit`` (applied after the
                kind filter, so ``limit=5, kind="shed"`` means the five
                newest shed events).
            kind: Keep only events of this kind (e.g. ``"shed"``,
                ``"security_alert"``, ``"drift_alert"``).
        """
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.get("kind") == kind]
        if limit is not None and limit >= 0:
            events = events[len(events) - min(limit, len(events)):]
        return events

    def to_dict(
        self, limit: int | None = None, kind: str | None = None
    ) -> dict:
        """Versioned black-box document (``"schema": 1``).

        Args:
            limit: Optional cap on the number of newest request records
                and events included.
            kind: Optional event-kind filter (request records are not
                filtered — they have no kind).
        """
        with self._lock:
            total_requests = self._total_requests
            total_events = self._total_events
            dropped_requests = self._dropped_requests
            dropped_events = self._dropped_events
        requests = self.requests(limit)
        events = self.events(limit, kind=kind)
        from repro.obs.envinfo import environment_fingerprint

        return {
            "schema": SCHEMA_VERSION,
            "kind": "flight_recorder",
            "environment": environment_fingerprint(),
            "max_requests": self.max_requests,
            "max_events": self.max_events,
            "total_requests": total_requests,
            "total_events": total_events,
            "dropped_requests": dropped_requests,
            "dropped_events": dropped_events,
            "requests": requests,
            "events": events,
        }

    def to_json(self, limit: int | None = None, **kwargs) -> str:
        """The :meth:`to_dict` document as JSON."""
        return json.dumps(self.to_dict(limit), **kwargs)

    # -- dumping -------------------------------------------------------

    def dump(self, path: str | None = None) -> str:
        """Write the black-box file; returns the path written.

        Args:
            path: Destination; defaults to ``auto_dump_path``.

        Raises:
            ValueError: When neither ``path`` nor ``auto_dump_path`` is
                set.
        """
        destination = path or self.auto_dump_path
        if destination is None:
            raise ValueError(
                "no dump destination: pass a path or set auto_dump_path"
            )
        document = self.to_json(indent=2)
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(document)
        return destination

    def auto_dump(self, reason: str, **details) -> str | None:
        """Dump triggered by a failure; no-op without ``auto_dump_path``.

        Records a ``"dump"`` event carrying the reason (so the written
        file explains itself), then writes the black-box file.  A write
        that fails with :class:`OSError` is recorded as a
        ``"dump_failed"`` event (path and error) instead of raising: the
        dump runs while serving failed requests, and an unwritable black
        box must not turn them, or the batch's served requests, into
        errors.

        Returns:
            The path written, or ``None`` when auto dumping is not
            configured or the write failed.
        """
        if self.auto_dump_path is None:
            return None
        self.record_event("dump", reason=reason, **details)
        try:
            return self.dump()
        except OSError as error:
            self.record_event(
                "dump_failed", path=self.auto_dump_path, error=repr(error)
            )
            return None

    def clear(self) -> None:
        """Drop all retained records and events (totals reset too)."""
        with self._lock:
            self._requests.clear()
            self._events.clear()
            self._total_requests = 0
            self._total_events = 0
            self._dropped_requests = 0
            self._dropped_events = 0


# -- process-wide default recorder --------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide default recorder the serving layer records into."""
    with _DEFAULT_LOCK:
        return _DEFAULT_RECORDER


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the default recorder; returns the previous one.

    Tests and long-running drivers use this to install a recorder with
    their own ring sizes / auto-dump destination.
    """
    global _DEFAULT_RECORDER
    with _DEFAULT_LOCK:
        previous = _DEFAULT_RECORDER
        _DEFAULT_RECORDER = recorder
        return previous
