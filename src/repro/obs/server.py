"""Live observability endpoint (stdlib ``http.server``, no dependencies).

:class:`ObservabilityServer` exposes the in-process telemetry of a
serving deployment over plain HTTP, so metrics, traces and drift state
are retrievable *after the fact* without attaching a debugger:

=============  ===========================================================
path           returns
=============  ===========================================================
``/metrics``   Prometheus text exposition of the metrics registry
``/healthz``   200 liveness JSON: status, ``started_at``,
               ``uptime_seconds`` and the environment fingerprint —
               fleet inventory scraped from the probe already being hit
``/readyz``    200 when the readiness probe passes, 503 otherwise
``/traces``    flight-recorder black-box JSON (``?limit=N`` for recent N)
``/drift``     drift alerts raised so far, as versioned JSON
``/audit``     decision audit-ledger query (``?request_id=`` / ``user=`` /
               ``decision=`` / ``since=`` / ``until=`` / ``limit=N``)
``/slo``       SLO compliance, error-budget and burn-rate document
``/alerts``    security-sentinel rule catalogue + alerts (``?limit=N`` /
               ``rule=``); 404 while no sentinel is installed
``/capture``   capture-store index, or one capture's summary with
               ``?request_id=``; 404 while no capture store is installed
=============  ===========================================================

The server runs on a daemon thread (`ThreadingHTTPServer`), so scrapes
during an active batch never block serving — handlers only take the
registry/recorder locks for the duration of one snapshot.

Example::

    from repro.obs import ObservabilityServer, get_registry

    server = ObservabilityServer(registry=get_registry()).start()
    print(server.url("/metrics"))   # scrape me
    ...
    server.stop()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from repro.obs.flight import FlightRecorder, get_flight_recorder
from repro.obs.metrics import (
    SCHEMA_VERSION,
    MetricsRegistry,
    get_registry,
)

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes one request to the owning :class:`ObservabilityServer`."""

    # Keep HTTP/1.1 keep-alive off: scrapers open one-shot connections
    # and lingering sockets would delay shutdown.
    protocol_version = "HTTP/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # endpoint traffic must not spam the serving logs

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        obs: "ObservabilityServer" = self.server.obs  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._reply(
                    200,
                    obs.registry.render_prometheus(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif route == "/healthz":
                self._reply_json(200, obs.health_document())
            elif route == "/readyz":
                ready = obs.check_ready()
                self._reply(
                    200 if ready else 503,
                    "ready\n" if ready else "unavailable\n",
                    "text/plain; charset=utf-8",
                )
            elif route == "/traces":
                limit = _parse_limit(parse_qs(parsed.query))
                self._reply_json(200, obs.recorder.to_dict(limit))
            elif route == "/drift":
                self._reply_json(200, obs.drift_document())
            elif route == "/audit":
                self._reply_json(
                    200, obs.audit_document(parse_qs(parsed.query))
                )
            elif route == "/slo":
                self._reply_json(200, obs.slo_document())
            elif route == "/alerts":
                status, document = obs.alerts_document(
                    parse_qs(parsed.query)
                )
                self._reply_json(status, document)
            elif route == "/capture":
                status, document = obs.capture_document(
                    parse_qs(parsed.query)
                )
                self._reply_json(status, document)
            else:
                self._reply_json(
                    404,
                    {
                        "error": "unknown path",
                        "path": parsed.path,
                        "endpoints": sorted(ENDPOINTS),
                    },
                )
        except BrokenPipeError:  # scraper went away mid-write
            pass

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, status: int, document: dict) -> None:
        self._reply(
            status,
            json.dumps(document, indent=2) + "\n",
            "application/json; charset=utf-8",
        )


#: The paths the server answers (everything else is a JSON 404).
ENDPOINTS = (
    "/metrics", "/healthz", "/readyz", "/traces", "/drift", "/audit",
    "/slo", "/alerts", "/capture",
)


def _parse_limit(query: dict) -> int | None:
    values = query.get("limit")
    if not values:
        return None
    try:
        return max(0, int(values[-1]))
    except ValueError:
        return None


def _query_str(query: dict, key: str) -> str | None:
    values = query.get(key)
    return values[-1] if values else None


def _query_float(query: dict, key: str) -> float | None:
    values = query.get(key)
    if not values:
        return None
    try:
        return float(values[-1])
    except ValueError:
        return None


class ObservabilityServer:
    """Serve live telemetry over HTTP from a daemon thread.

    Args:
        host: Bind address (default loopback).
        port: TCP port; ``0`` picks an ephemeral port (read it back from
            :attr:`port` after :meth:`start` — this is what tests use).
        registry: Metrics registry scraped by ``/metrics``; defaults to
            the process-wide registry at each scrape.
        recorder: Flight recorder served by ``/traces``; defaults to the
            process-wide recorder.
        readiness: Zero-argument probe for ``/readyz``; truthy means
            ready.  ``None`` reports ready whenever the server runs.
        drift_source: Zero-argument callable returning the current
            drift alerts for ``/drift`` — typically the serving
            :class:`~repro.serve.BatchAuthenticator`'s
            ``drift.alerts``, which lists them in raise order; ``None``
            serves an empty alert list.
        audit_ledger: :class:`repro.obs.audit.AuditLedger` queried by
            ``/audit``; defaults to the process-wide ledger
            (:func:`repro.obs.audit.get_audit_ledger`) at each request,
            and reports auditing disabled when none is installed.
        slo: :class:`repro.obs.slo.SLOTracker` evaluated by ``/slo``;
            ``None`` lazily builds a tracker with default objectives
            over this server's registry.
        sentinel: :class:`repro.obs.sentinel.SecuritySentinel` served
            by ``/alerts``; defaults to the process-wide sentinel
            (:func:`repro.obs.sentinel.get_security_sentinel`) at each
            request.  Unlike ``/audit``'s disabled document, ``/alerts``
            is a JSON 404 while no sentinel is installed — scrapers must
            not mistake "nobody is watching" for "no alerts".
        capture_store: :class:`repro.obs.CaptureStore` served by
            ``/capture``; defaults to the process-wide store
            (:func:`repro.obs.get_capture_store`) at each request.
            Like ``/alerts``, a JSON 404 while none is installed —
            capture is opt-in, and an empty index would read as "the
            request was never captured".

    The server is restart-safe in the sense that ``start``/``stop`` are
    idempotent; a stopped instance cannot be started again (build a new
    one).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        readiness: Callable[[], bool] | None = None,
        drift_source: Callable[[], list] | None = None,
        audit_ledger=None,
        slo=None,
        sentinel=None,
        capture_store=None,
    ) -> None:
        self.host = host
        self.requested_port = port
        self._registry = registry
        self._recorder = recorder
        self.readiness = readiness
        self.drift_source = drift_source
        self._audit_ledger = audit_ledger
        self._slo = slo
        self._sentinel = sentinel
        self._capture_store = capture_store
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._stopped = False
        self._started_at: float | None = None

    # -- telemetry sources ---------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The registry scraped by ``/metrics``."""
        return self._registry if self._registry is not None else get_registry()

    @property
    def recorder(self) -> FlightRecorder:
        """The flight recorder served by ``/traces``."""
        return (
            self._recorder
            if self._recorder is not None
            else get_flight_recorder()
        )

    def check_ready(self) -> bool:
        """The ``/readyz`` verdict: running and readiness probe truthy."""
        if self._httpd is None or self._stopped:
            return False
        if self.readiness is None:
            return True
        try:
            return bool(self.readiness())
        except Exception:  # noqa: BLE001 - a broken probe means not ready
            return False

    def drift_document(self) -> dict:
        """The ``/drift`` payload: alerts raised so far, versioned."""
        alerts = []
        if self.drift_source is not None:
            for alert in self.drift_source():
                alerts.append(
                    alert.to_dict() if hasattr(alert, "to_dict") else alert
                )
        return {"schema": SCHEMA_VERSION, "alerts": alerts}

    @property
    def audit_ledger(self):
        """The ledger queried by ``/audit`` (may be ``None``)."""
        if self._audit_ledger is not None:
            return self._audit_ledger
        from repro.obs.audit import get_audit_ledger

        return get_audit_ledger()

    def audit_document(self, query: dict | None = None) -> dict:
        """The ``/audit`` payload for one parsed query string.

        Args:
            query: ``parse_qs``-style mapping; recognised keys are
                ``request_id``, ``user``, ``decision``, ``since``,
                ``until``, ``limit`` and ``rotated`` (truthy includes
                rotated segments).  Malformed numeric values are
                ignored, like ``/traces``' ``?limit=``.
        """
        query = query or {}
        ledger = self.audit_ledger
        if ledger is None:
            return {
                "schema": SCHEMA_VERSION,
                "kind": "audit_query",
                "enabled": False,
                "total_matched": 0,
                "entries": [],
            }
        entries = ledger.query(
            request_id=_query_str(query, "request_id"),
            user=_query_str(query, "user"),
            decision=_query_str(query, "decision"),
            since=_query_float(query, "since"),
            until=_query_float(query, "until"),
            limit=_parse_limit(query),
            include_rotated=_query_str(query, "rotated") in ("1", "true"),
        )
        document = ledger.to_document(entries)
        document["enabled"] = True
        return document

    @property
    def sentinel(self):
        """The sentinel served by ``/alerts`` (may be ``None``)."""
        if self._sentinel is not None:
            return self._sentinel
        from repro.obs.sentinel import get_security_sentinel

        return get_security_sentinel()

    def alerts_document(self, query: dict | None = None) -> tuple[int, dict]:
        """``(status, document)`` of the ``/alerts`` payload.

        Args:
            query: ``parse_qs``-style mapping; recognised keys are
                ``limit`` (newest N alerts) and ``rule`` (filter by
                rule name).  Malformed ``limit`` values are ignored,
                like every other endpoint's.

        Returns:
            ``(404, error document)`` while no sentinel is installed —
            deliberately unlike ``/audit``'s ``enabled: false`` —
            otherwise ``(200, sentinel document)``.
        """
        query = query or {}
        sentinel = self.sentinel
        if sentinel is None:
            return 404, {
                "error": "no security sentinel installed",
                "hint": (
                    "install one with repro.obs.set_security_sentinel()"
                ),
            }
        return 200, sentinel.to_dict(
            limit=_parse_limit(query),
            rule=_query_str(query, "rule"),
        )

    def health_document(self) -> dict:
        """The ``/healthz`` payload: liveness plus fleet inventory.

        Probes already hit this path, so it carries the endpoint's start
        time, its uptime and the process's environment fingerprint —
        enough for an inventory scraper to map a fleet (commit,
        interpreter, numpy, machine) without a second endpoint.
        """
        from repro.obs.envinfo import environment_fingerprint

        now = time.time()
        return {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "started_at": self._started_at,
            "uptime_seconds": (
                now - self._started_at
                if self._started_at is not None
                else None
            ),
            "environment": dict(environment_fingerprint()),
        }

    @property
    def capture_store(self):
        """The store served by ``/capture`` (may be ``None``)."""
        if self._capture_store is not None:
            return self._capture_store
        from repro.obs.capture import get_capture_store

        return get_capture_store()

    def capture_document(
        self, query: dict | None = None
    ) -> tuple[int, dict]:
        """``(status, document)`` of the ``/capture`` payload.

        Args:
            query: ``parse_qs``-style mapping; ``request_id`` selects
                one capture's summary, otherwise the store index is
                served.

        Returns:
            ``(404, error document)`` while no capture store is
            installed, or for an unknown request id; otherwise
            ``(200, summary | index)``.
        """
        query = query or {}
        store = self.capture_store
        if store is None:
            return 404, {
                "error": "no capture store installed",
                "hint": (
                    "install one with repro.obs.set_capture_store() "
                    "(capture is opt-in)"
                ),
            }
        request_id = _query_str(query, "request_id")
        if request_id is None:
            return 200, store.index_document()
        capture = store.get(request_id)
        if capture is None:
            return 404, {
                "error": "request id not captured",
                "request_id": request_id,
                "captured": len(store),
            }
        return 200, capture.summary_document()

    def slo_document(self) -> dict:
        """The ``/slo`` payload (evaluates the tracker on demand)."""
        if self._slo is None:
            from repro.obs.slo import SLOTracker

            self._slo = SLOTracker(registry=self._registry)
        return self._slo.evaluate()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ObservabilityServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._stopped:
            raise RuntimeError("a stopped ObservabilityServer cannot restart")
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), _Handler
        )
        httpd.daemon_threads = True
        httpd.obs = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the endpoint down (idempotent)."""
        self._stopped = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral port 0 after start)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    def url(self, path: str = "") -> str:
        """Absolute URL of ``path`` on this endpoint."""
        return f"http://{self.host}:{self.port}{path}"
