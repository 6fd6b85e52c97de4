"""The three serving workloads and why each exists.

All three share the traffic base of :mod:`perfbench.traffic`: a household
of four enrolled users (multi-user SVDD gate + one-vs-one SVM), a quarter
of requests from unenrolled spoofers, requests drawn from a seeded pool
of distinct attempts.  They differ in the layer they load:

* ``coarse_batch`` — the ``scripts/serve_monitor.py`` defaults (4-beep
  attempts, 24x24 grid, plain batch path, one tenant).  The CNN
  (``FeatureExtractor.extract``) takes most of the worker time and
  imaging little, so CNN work shows here and imaging work does not.
* ``paper_grid`` — the paper's 180x180 plane (1 cm cells) with 2-beep
  attempts.  Imaging dominates worker time and the 32,400-point steering
  working set nearly doubles memory, so imaging, steering and memory
  work shows here.
* ``stream_observed`` — 8-beep attempts through the streaming early-exit
  path, four tenants with skewed shares and every opt-in observer
  installed (on-disk audit ledger, on-disk capture store with async
  persist, security sentinel).  Early exit images about one beep in
  eight, so ranging over the full attempt dominates; imaging and the CNN
  run on batches of one; it is the only workload that writes on every
  request, so observer and fan-out work shows here and nowhere else.

The open-loop rates are absolute and fixed, about a quarter of each
workload's drain throughput on the reference machine (2 vCPU, thread
backend, one BLAS thread): at a third, a few percent of CPU steal on the
VM pushed the open loop near its knee and made latency unsteady.  Drain
bursts stay within the broker's capacity, so no request is shed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Enrollment beeps per household member.
ENROLL_BEEPS = 16
#: SVDD acceptance margin (``scripts/serve_monitor.py`` default).
SVDD_MARGIN = 0.2
#: Distinct attempts requests are drawn from.
POOL_SIZE = 16
#: Requests submitted at once in each drain burst (broker capacity: 64).
DRAIN_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    #: Beeps per authentication attempt.
    attempt_beeps: int
    #: Imaging grid side (cells per axis of the 1.8 m plane).
    grid: int
    #: Serve through ``authenticate_streaming`` with the calibrated
    #: early-exit policy instead of the plain batch path.
    streaming: bool
    #: Relative request shares of the tenants (one entry per tenant).
    tenant_weights: tuple
    #: Install the audit ledger, capture store and security sentinel.
    observers: bool
    #: Open-loop Poisson arrival rate (requests per second).
    rate_rps: float

    def config(self):
        from repro.config import (
            AuthenticationConfig,
            EchoImageConfig,
            ImagingConfig,
        )

        return EchoImageConfig(
            imaging=ImagingConfig(grid_resolution=self.grid),
            auth=AuthenticationConfig(svdd_margin=SVDD_MARGIN),
        )

    def exit_policy(self):
        """The broker's early-exit policy; ``None`` serves the batch path."""
        if not self.streaming:
            return None
        from repro.config import ExitPolicy

        # The threshold calibrated by the ``stream-exit`` experiment and
        # used by the ``serve.stream_quick`` bench case.
        return ExitPolicy(min_beeps=1, score_threshold=0.02)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coarse_batch",
            attempt_beeps=4,
            grid=24,
            streaming=False,
            tenant_weights=(1.0,),
            observers=False,
            rate_rps=4.5,
        ),
        Workload(
            name="paper_grid",
            attempt_beeps=2,
            grid=180,
            streaming=False,
            tenant_weights=(1.0,),
            observers=False,
            rate_rps=3.75,
        ),
        Workload(
            name="stream_observed",
            attempt_beeps=8,
            grid=24,
            streaming=True,
            tenant_weights=(0.4, 0.3, 0.2, 0.1),
            observers=True,
            rate_rps=5.5,
        ),
    )
}
