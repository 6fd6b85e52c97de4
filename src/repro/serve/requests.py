"""Request/response dataclasses of the batch serving layer.

A serving client wraps each authentication attempt (the L beep captures
of one user interaction) in an :class:`AuthenticationRequest` and submits
many of them at once to :class:`repro.serve.BatchAuthenticator`, which
returns one :class:`AuthenticationResponse` per request in input order.
A ``process`` worker's response also carries the traces the worker
completed; the parent emits them to its trace sinks, which derive the
metrics, and clears them before callers see the response.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acoustics.scene import BeepRecording
from repro.core.pipeline import AuthenticationResult
from repro.obs.capture import RequestCapture
from repro.obs.correlation import new_request_id
from repro.obs.drift import DriftAlert
from repro.obs.tracer import PipelineTrace

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
        worker_traces: The traces a ``process`` worker completed while
            serving the request.  The parent emits them to its trace
            sinks, which derive the pipeline metrics, and clears the
            field before the response reaches callers, so serial,
            thread and process backends report identical metrics.
        capture: The :class:`~repro.obs.RequestCapture` of the attempt
            that answered, collected by the worker when the parent has
            a capture store installed.  The serving fan-out records it
            once and the field is cleared before the response reaches
            callers.
        drift_alerts: The :class:`~repro.obs.DriftAlert` objects newly
            raised when the serving fan-out fed this response's per-beep
            scores and echo SNR to the authenticator's drift suite.
            Only ``ok`` responses feed the suite, so every other status
            carries none.
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
    worker_traces: tuple[PipelineTrace, ...] = ()
    capture: RequestCapture | None = None
    drift_alerts: tuple[DriftAlert, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """Whether a decision was produced (full fidelity or degraded)."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)
