"""Batched, parallel authentication serving layer.

The core pipeline authenticates one attempt at a time; this package
turns it into a serving surface: many attempts in, one structured
response per attempt out, with the fitted model state shared across a
worker pool instead of recomputed per worker.

Three pieces:

* :class:`ModelBundle` — picklable snapshot of an enrolled pipeline
  (fitted SVDD/SVM with scaler state, drift baseline), persistable to
  disk via :meth:`ModelBundle.save` / :meth:`ModelBundle.load` so a
  restarted service re-arms without re-running enrollment;
* :class:`BatchAuthenticator` — the worker-pool executor (``serial`` /
  ``thread`` / ``process`` backends via
  :class:`~repro.config.ServingConfig`), with per-batch timeout, a
  graceful-degradation ladder and the one drift suite of its served
  traffic;
* :class:`AuthenticationRequest` / :class:`AuthenticationResponse` —
  the serving wire format;
* :class:`RequestBroker` — continuous-ingest front end over the
  executor: bounded queue with admission control (structured ``shed``
  responses), per-tenant fair dequeue, optional SLO-aware shedding, and
  streaming early-exit dispatch via
  :class:`~repro.config.ExitPolicy` (threshold disabled = bit-identical
  to the batch path).

Example::

    from repro.config import ServingConfig
    from repro.serve import (
        AuthenticationRequest, BatchAuthenticator, ModelBundle,
    )

    bundle = ModelBundle.from_pipeline(enrolled_pipeline)
    requests = [
        AuthenticationRequest(f"req-{i}", tuple(recs))
        for i, recs in enumerate(attempts)
    ]
    with BatchAuthenticator(
        bundle, ServingConfig(backend="thread")
    ) as server:
        for response in server.authenticate_batch(requests):
            print(response.request_id, response.status)

The golden harness under ``tests/golden`` pins every backend to the
sequential seed pipeline's outputs; see ``docs/ARCHITECTURE.md`` for the
degradation ladder and sharing guarantees.
"""

from repro.serve.broker import SHED_CAPACITY, SHED_SLO_BURN, RequestBroker
from repro.serve.bundle import ModelBundle
from repro.serve.degradation import (
    DEFAULT_LADDER,
    DegradationPolicy,
    DegradationStep,
)
from repro.serve.executor import BatchAuthenticator
from repro.serve.requests import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    STATUSES,
    AuthenticationRequest,
    AuthenticationResponse,
)

__all__ = [
    "AuthenticationRequest",
    "AuthenticationResponse",
    "BatchAuthenticator",
    "DEFAULT_LADDER",
    "DegradationPolicy",
    "DegradationStep",
    "ModelBundle",
    "RequestBroker",
    "SHED_CAPACITY",
    "SHED_SLO_BURN",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
]
