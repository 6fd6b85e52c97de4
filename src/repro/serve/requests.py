"""Request/response dataclasses of the batch serving layer.

A serving client wraps each authentication attempt (the L beep captures
of one user interaction) in an :class:`AuthenticationRequest` and submits
many of them at once to :class:`repro.serve.BatchAuthenticator`, which
returns one :class:`AuthenticationResponse` per request in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.acoustics.scene import BeepRecording
from repro.core.pipeline import AuthenticationResult
from repro.obs.correlation import new_request_id

#: The request completed through the full-fidelity pipeline.
STATUS_OK = "ok"
#: The request completed, but only after a degradation-ladder fallback.
STATUS_DEGRADED = "degraded"
#: The request failed at every degradation level.
STATUS_ERROR = "error"
#: The request did not finish inside the batch's time budget.
STATUS_TIMEOUT = "timeout"
#: The broker refused the request at admission (queue full or SLO
#: burn-rate shedding); it was never executed.
STATUS_SHED = "shed"

#: Every status a response can carry.
STATUSES = (
    STATUS_OK,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    STATUS_SHED,
)


@dataclass(frozen=True)
class AuthenticationRequest:
    """One authentication attempt queued for batch serving.

    Attributes:
        request_id: Correlation identifier echoed in the response and
            carried into every span, metric exemplar, flight record and
            audit-ledger entry the request touches.  Caller-chosen when
            given; an empty value is replaced by a fresh
            :func:`repro.obs.correlation.new_request_id`, so every
            request is correlatable even when the caller does not care.
        recordings: The attempt's beep captures, one per probing beep.
        tenant: Logical traffic source the broker's fair dequeue groups
            by; the default lumps unattributed traffic together.

    Example:
        >>> import numpy as np
        >>> rec = BeepRecording(
        ...     samples=np.zeros((2, 16)), sample_rate=16000.0, emit_index=0)
        >>> AuthenticationRequest("alice-1", (rec,)).num_beeps
        1
        >>> AuthenticationRequest(recordings=(rec,)).request_id.startswith(
        ...     "req-")
        True
        >>> AuthenticationRequest(recordings=(rec,), tenant="lobby").tenant
        'lobby'
    """

    request_id: str = ""
    recordings: tuple[BeepRecording, ...] = ()
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.request_id:
            object.__setattr__(self, "request_id", new_request_id())
        object.__setattr__(self, "recordings", tuple(self.recordings))
        if not self.recordings:
            raise ValueError(f"request {self.request_id!r} has no recordings")

    @property
    def num_beeps(self) -> int:
        """Number of beep captures in the attempt."""
        return len(self.recordings)


class WorkerTelemetry(NamedTuple):
    """What a ``process`` worker observed while serving one request.

    Attributes:
        metrics: The worker's metric increments, as a
            :meth:`repro.obs.MetricsRegistry.snapshot` document.
        traces: The :class:`~repro.obs.PipelineTrace` objects completed
            in the worker.
        captures: The :class:`~repro.obs.RequestCapture` objects
            recorded in the worker; empty unless the parent has a
            capture store installed.
    """

    metrics: dict
    traces: tuple
    captures: tuple


@dataclass(frozen=True)
class AuthenticationResponse:
    """Outcome of one served request.

    Every response the serving layer resolves — served, timed out,
    failed or shed — passes once through
    :func:`repro.serve.outcomes.record_outcomes`, which feeds the
    installed observers, before its caller sees it.

    Attributes:
        request_id: Echo of the request's identifier.
        status: One of :data:`STATUSES`.
        result: The pipeline's decision; ``None`` on error/timeout.
        error: ``repr`` of the terminal exception for ``error`` responses
            (and the budget description for ``timeout`` ones).
        degradation: Name of the degradation step that produced the
            result, for ``degraded`` responses.
        latency_s: Wall time spent on the request inside the worker;
            ``None`` when the request timed out in the queue.
        shed_reason: Why the broker refused a ``shed`` response
            (``"capacity"`` or ``"slo_burn"``); ``None`` otherwise.
        beeps_used: Beeps the decision actually consumed; ``None`` when
            no decision was produced.  Equals the (possibly degraded)
            attempt length on the batch path, possibly fewer on the
            streaming path.
        early_exit: Whether the streaming path stopped before its last
            beep.  Mutually exclusive with ``degradation`` by
            construction: degraded retries run the non-streaming
            pipeline, so a response never carries both.
        telemetry: The ``process`` backend's :class:`WorkerTelemetry`
            payload.  The parent applies it to its registry, trace sinks
            and capture store and strips the field before the response
            reaches callers, so serial, thread and process backends
            report identical totals.
    """

    request_id: str
    status: str
    result: AuthenticationResult | None = None
    error: str | None = None
    degradation: str | None = None
    latency_s: float | None = None
    shed_reason: str | None = None
    beeps_used: int | None = None
    early_exit: bool = False
    telemetry: WorkerTelemetry | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """Whether a decision was produced (full fidelity or degraded)."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)
