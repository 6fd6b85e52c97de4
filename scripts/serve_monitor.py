"""Long-running authentication driver with metrics and drift monitoring.

Simulates a deployed smart speaker: enroll one user, then serve a stream
of authentication attempts (genuine visits, periodic spoofing attempts,
optional mid-run channel degradation) while the pipeline's quality
telemetry accumulates in the metrics registry and the serving workers'
drift monitors watch the score/SNR distributions.  One status line is
printed per attempt, followed by the drift alerts its response carried
as structured JSON; the Prometheus text dump is printed every
``--dump-every`` attempts and at the end (write it to a file with
``--prom-file`` and point a Prometheus ``textfile`` collector — or
``curl``-replaying scraper — at it).

Every attempt is served through the batch serving layer
(:mod:`repro.serve`): attempts are grouped into batches of
``--batch-size`` requests and dispatched on the ``--backend`` worker
pool — ``serial`` (the default) runs them in line on this thread,
``thread`` and ``process`` on a pool — exercising the same
bundle-sharing, degradation ladder and observer fan-out a deployment
would run.  The metrics, flight recorder, audit ledger, sentinel and
capture store see each decision only through that fan-out
(:func:`repro.serve.outcomes.record_outcomes`), so they agree about
every request.

With ``--broker`` the pool is fronted by the
:class:`repro.serve.RequestBroker`: every attempt is recorded up front
and the whole workload is burst-submitted at once, so choosing
``--broker-capacity`` below ``--attempts`` drives genuine overload —
capacity sheds show up as structured ``shed`` responses and in
``echoimage_broker_shed_total`` — and the run ends with an explicit
drain and a served/shed/stuck summary line.  ``--exit-threshold``
enables streaming early-exit dispatch through the same broker.

With ``--obs-port`` the live observability endpoint
(:class:`repro.obs.ObservabilityServer`) runs for the whole lifetime of
the monitor: ``/metrics`` serves the Prometheus dump, ``/healthz`` is
up from startup, ``/readyz`` flips to 200 once enrollment finishes (and
back to 503 if the worker pool shuts down), ``/traces`` serves the
flight recorder, ``/drift`` the alerts raised so far, ``/audit`` the
decision audit ledger (when ``--audit-jsonl`` is set), ``/slo`` the
live error-budget document and ``/alerts`` the security sentinel's
rule catalogue and alert feed.

A :class:`repro.obs.SecuritySentinel` is always installed for the run:
every decision streams through its attack-pattern detectors, and its
alerts are routed to ``echoimage_security_alerts_total``, served on
``/alerts`` and listed at the end of the run.  With
``--replay-burst N`` the monitor injects a scripted replay attack
(:func:`repro.attacks.replay_burst`) right after enrollment — N
machine-paced replays of a recorded victim beep under request ids
``replay-burst-0..N-1``, served as one batch — which trips the
``velocity_burst`` rule (printed right after the burst) and gives
scrapers and ``scripts/incident_report.py`` a correlation id to
stitch a timeline from.  The flight recorder is always on;
``--flight-json`` writes its black-box file at the end (pretty-print it
with ``scripts/obs_dump.py``).  ``--audit-jsonl`` appends every decision
to a hash-chained tamper-evident ledger — query or verify it afterwards
with ``scripts/audit_query.py``.  ``--capture-dir`` installs a
:class:`repro.obs.CaptureStore` rooted there: every served request's
inputs, resolved config, stage digests and content-addressed model
bundle are persisted so any decision can be re-executed and diffed
afterwards with ``scripts/replay_request.py`` (the postmortem
counterpart of the live endpoint's ``/capture`` view).

Run:  PYTHONPATH=src python scripts/serve_monitor.py
      PYTHONPATH=src python scripts/serve_monitor.py --attempts 60 \\
          --degrade-after 30 --dump-every 20 --metrics-json metrics.json
      PYTHONPATH=src python scripts/serve_monitor.py --backend thread \\
          --workers 4 --batch-size 8
      PYTHONPATH=src python scripts/serve_monitor.py --backend thread \\
          --obs-port 9102 --flight-json flight.json &
      curl -s http://127.0.0.1:9102/metrics
      PYTHONPATH=src python scripts/serve_monitor.py \\
          --broker --broker-capacity 8 --tenants 3 --exit-threshold 0.02
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import EchoImagePipeline
from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene
from repro.body.subject import SyntheticSubject
from repro.config import (
    AuthenticationConfig,
    EchoImageConfig,
    ImagingConfig,
    MonitoringConfig,
    ServingConfig,
)
from repro.obs import (
    AuditLedger,
    FlightRecorder,
    MetricsRegistry,
    ObservabilityServer,
    SecuritySentinel,
    SLOTracker,
    set_audit_ledger,
    set_flight_recorder,
    set_registry,
    set_security_sentinel,
)
from repro.serve import AuthenticationRequest, BatchAuthenticator, ModelBundle
from repro.signal.chirp import LFMChirp


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="EchoImage serving monitor (metrics + drift)"
    )
    parser.add_argument(
        "--attempts", type=int, default=40,
        help="authentication attempts to serve (default 40)",
    )
    parser.add_argument(
        "--beeps", type=int, default=4,
        help="beeps per attempt (default 4)",
    )
    parser.add_argument(
        "--enroll-beeps", type=int, default=16,
        help="enrollment beeps (default 16)",
    )
    parser.add_argument(
        "--resolution", type=int, default=24,
        help="imaging-plane grid resolution (default 24, keeps the "
        "driver interactive)",
    )
    parser.add_argument(
        "--spoof-every", type=int, default=5,
        help="every k-th attempt is a spoofer; 0 disables (default 5)",
    )
    parser.add_argument(
        "--degrade-after", type=int, default=0,
        help="from this attempt on, serve from a noisy degraded channel "
        "(0 = never) — drives the SNR drift monitor",
    )
    parser.add_argument(
        "--degrade-noise-db", type=float, default=55.0,
        help="ambient noise level of the degraded channel (default 55)",
    )
    parser.add_argument(
        "--drift-window", type=int, default=24,
        help="drift-monitor sliding window (default 24)",
    )
    parser.add_argument(
        "--drift-min-samples", type=int, default=12,
        help="observations before drift tests run (default 12)",
    )
    parser.add_argument(
        "--dump-every", type=int, default=0,
        help="print the Prometheus dump every N attempts (0 = only at "
        "the end)",
    )
    parser.add_argument(
        "--prom-file", metavar="FILE", default=None,
        help="write the final Prometheus text dump to FILE",
    )
    parser.add_argument(
        "--metrics-json", metavar="FILE", default=None,
        help="write the final metrics registry as versioned JSON to FILE",
    )
    parser.add_argument(
        "--margin", type=float, default=0.2,
        help="SVDD acceptance margin (default 0.2 — accepts the genuine "
        "user most of the time while rejecting the spoofer at the demo's "
        "coarse imaging resolution)",
    )
    parser.add_argument(
        "--backend", default="serial",
        choices=("serial", "thread", "process"),
        help="worker-pool backend of the repro.serve batch layer: "
        "serial (default; in line on this thread), thread or process",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker count for --backend thread/process (0 = CPU count)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=8,
        help="requests per served batch (default 8)",
    )
    parser.add_argument(
        "--broker", action="store_true",
        help="front the worker pool with the RequestBroker: all attempts "
        "are recorded first and then burst-submitted at once, exercising "
        "admission control (capacity sheds), fair dequeue and drain",
    )
    parser.add_argument(
        "--broker-capacity", type=int, default=16,
        help="broker queue capacity; submissions beyond it shed "
        "(default 16)",
    )
    parser.add_argument(
        "--tenants", type=int, default=1,
        help="spread broker submissions over this many tenants to "
        "exercise the fair dequeue rotation (default 1)",
    )
    parser.add_argument(
        "--exit-threshold", type=float, default=0.0,
        help="streaming early-exit score threshold for broker dispatch "
        "(0 = early exit disabled: bit-identical to the batch path)",
    )
    parser.add_argument(
        "--exit-min-beeps", type=int, default=1,
        help="minimum beeps consumed before an early exit (default 1)",
    )
    parser.add_argument(
        "--obs-port", type=int, default=None, metavar="PORT",
        help="serve the live observability endpoint (/metrics /healthz "
        "/readyz /traces /drift) on this port for the whole run "
        "(0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--obs-host", default="127.0.0.1",
        help="bind address of the observability endpoint "
        "(default loopback)",
    )
    parser.add_argument(
        "--flight-json", metavar="FILE", default=None,
        help="write the flight-recorder black-box JSON to FILE at the "
        "end (also the auto-dump destination on batch failures)",
    )
    parser.add_argument(
        "--audit-jsonl", metavar="FILE", default=None,
        help="append every decision to a hash-chained, tamper-evident "
        "audit ledger at FILE (query and verify it with "
        "scripts/audit_query.py)",
    )
    parser.add_argument(
        "--capture-dir", metavar="DIR", default=None,
        help="persist per-request captures (inputs, config, stage "
        "digests, model bundle) to a CaptureStore rooted at DIR — "
        "replay any request afterwards with scripts/replay_request.py",
    )
    parser.add_argument(
        "--capture-max", type=int, default=256,
        help="captures retained before LRU eviction (default 256)",
    )
    parser.add_argument(
        "--replay-burst", type=int, default=0, metavar="N",
        help="inject N machine-paced replays of a recorded victim beep "
        "right after enrollment (request ids replay-burst-0..N-1) — a "
        "scripted attack drill that trips the sentinel's velocity_burst "
        "rule (0 = off)",
    )
    parser.add_argument("--seed", type=int, default=11, help="scene seed")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    rng = np.random.default_rng(args.seed)
    registry = MetricsRegistry()
    set_registry(registry)
    recorder = FlightRecorder(auto_dump_path=args.flight_json)
    set_flight_recorder(recorder)
    ledger = None
    if args.audit_jsonl:
        ledger = AuditLedger(args.audit_jsonl)
        set_audit_ledger(ledger)
        print(f"[audit ledger appending to {args.audit_jsonl}]")
    slo = SLOTracker(registry=registry)
    sentinel = SecuritySentinel()
    set_security_sentinel(sentinel)
    capture_store = None
    if args.capture_dir:
        from repro.obs import CaptureStore, set_capture_store

        capture_store = CaptureStore(
            root=args.capture_dir, max_captures=args.capture_max,
            async_persist=True,
        )
        set_capture_store(capture_store)
        print(
            f"[capturing requests to {args.capture_dir} "
            f"(max {args.capture_max}) — replay with "
            f"scripts/replay_request.py]"
        )

    chirp = LFMChirp()
    user = SyntheticSubject(subject_id=1)
    spoofer = SyntheticSubject(subject_id=2)
    scene = AcousticScene(noise=NoiseModel(kind="quiet", level_db_spl=30.0))
    degraded = AcousticScene(
        noise=NoiseModel(kind="babble", level_db_spl=args.degrade_noise_db)
    )
    config = EchoImageConfig(
        imaging=ImagingConfig(grid_resolution=args.resolution),
        auth=AuthenticationConfig(svdd_margin=args.margin),
        monitoring=MonitoringConfig(
            drift_window=args.drift_window,
            drift_min_samples=args.drift_min_samples,
        ),
    )
    pipeline = EchoImagePipeline(config=config)

    # Readiness: enrollment done, pool alive, and (when brokered) the
    # broker still admitting.
    state: dict = {"enrolled": False, "server": None, "broker": None}

    def ready() -> bool:
        broker = state["broker"]
        return (
            state["enrolled"]
            and state["server"].alive
            and (broker is None or broker.alive)
        )

    # Each serving worker owns its pipeline's drift monitors, and the
    # enrolling pipeline never serves: the run's drift alerts are the
    # ones the served responses carry.
    drift_alerts: list = []

    obs_server = None
    if args.obs_port is not None:
        obs_server = ObservabilityServer(
            host=args.obs_host,
            port=args.obs_port,
            registry=registry,
            recorder=recorder,
            readiness=ready,
            drift_source=drift_alerts.copy,
            audit_ledger=ledger,
            slo=slo,
            sentinel=sentinel,
        ).start()
        print(
            f"[observability endpoint on {obs_server.url()} — "
            f"/metrics /healthz /readyz /traces /drift /audit /slo "
            f"/alerts /capture]\n"
        )

    print(
        f"Enrolling user 1 ({args.enroll_beeps} beeps), then serving "
        f"{args.attempts} attempts of {args.beeps} beeps "
        f"(spoof every {args.spoof_every or 'never'}, degrade after "
        f"{args.degrade_after or 'never'})\n"
    )
    enroll = scene.record_beeps(
        chirp, user.beep_clouds(0.7, args.enroll_beeps, rng), rng
    )
    pipeline.enroll_user(enroll)
    baseline = pipeline.drift.monitor("auth.score").baseline
    print(
        f"score baseline frozen: mean {baseline.mean:.4f}, "
        f"std {baseline.std:.4f} over {baseline.count} enrollment scores\n"
    )

    server = BatchAuthenticator(
        ModelBundle.from_pipeline(pipeline),
        ServingConfig(backend=args.backend, max_workers=args.workers),
    )
    state["server"] = server
    print(
        f"serving through repro.serve: backend={args.backend}, "
        f"workers={args.workers or 'auto'}, "
        f"batch size {args.batch_size}\n"
    )

    broker = None
    if args.broker:
        from repro.config import BrokerConfig, ExitPolicy
        from repro.serve import RequestBroker

        policy = None
        if args.exit_threshold > 0:
            policy = ExitPolicy(
                min_beeps=args.exit_min_beeps,
                score_threshold=args.exit_threshold,
            )
        broker = RequestBroker(
            server,
            BrokerConfig(
                capacity=args.broker_capacity,
                dispatch_batch=min(args.batch_size, args.broker_capacity),
            ),
            exit_policy=policy,
            slo_tracker=slo,
        )
        state["broker"] = broker
        exit_note = (
            "off"
            if policy is None
            else f"|mean score| >= {args.exit_threshold}"
        )
        print(
            f"broker fronting the pool: capacity {args.broker_capacity}, "
            f"tenants {max(1, args.tenants)}, early exit {exit_note}\n"
        )

    state["enrolled"] = True  # bundle loaded: /readyz goes 200

    if args.replay_burst:
        from repro.attacks import replay_burst

        steps = replay_burst(user, num_attempts=args.replay_burst)
        burst_ids = [f"replay-burst-{i}" for i in range(len(steps))]
        print(
            f"[replay burst: {len(steps)} machine-paced replays, "
            f"request ids {burst_ids[0]}..{burst_ids[-1]}]"
        )
        before = len(sentinel.alerts())
        burst_recordings = [
            scene.record_beeps(chirp, [step.body] * args.beeps, rng)
            for step in steps
        ]
        # One batch: the decisions finalize back-to-back, so the
        # sentinel sees the burst at machine pacing.
        responses = server.authenticate_batch(
            [
                AuthenticationRequest(rid, tuple(recs), tenant="tenant-replay")
                for rid, recs in zip(burst_ids, burst_recordings)
            ]
        )
        for response in responses:
            if response.result is not None:
                drift_alerts.extend(response.result.drift_alerts)
        for alert in sentinel.alerts()[before:]:
            print(f"       SECURITY {json.dumps(alert.to_dict())}")
        print(
            f"[security alerts after burst: "
            f"{len(sentinel.alerts()) - before}]\n"
        )

    def print_attempt(attempt, spoofing, response, note=""):
        if not response.ok:
            print(f"[{attempt:4d}] {response.status} ({response.error})")
            return
        result = response.result
        mean_score = float(np.mean(result.scores))
        print(
            f"[{attempt:4d}] {'spoof' if spoofing else 'user '} -> "
            f"{'ACCEPT' if result.accepted else 'reject'}  "
            f"score {mean_score:+.4f}  "
            f"snr {result.distance.echo_snr_db:5.1f} dB{note}"
        )
        drift_alerts.extend(result.drift_alerts)
        for alert in result.drift_alerts:
            print(f"       DRIFT {json.dumps(alert.to_dict())}")

    def flush_batch(pending):
        requests = [
            AuthenticationRequest(str(attempt), tuple(recordings))
            for attempt, _, recordings in pending
        ]
        responses = server.authenticate_batch(requests)
        for (attempt, spoofing, _), response in zip(pending, responses):
            note = (
                f"  [degraded: {response.degradation}]"
                if response.degradation
                else ""
            )
            print_attempt(attempt, spoofing, response, note)
        pending.clear()

    started = time.time()
    pending: list = []
    workload: list = []
    for attempt in range(1, args.attempts + 1):
        spoofing = args.spoof_every and attempt % args.spoof_every == 0
        subject = spoofer if spoofing else user
        live_scene = (
            degraded
            if args.degrade_after and attempt > args.degrade_after
            else scene
        )
        recordings = live_scene.record_beeps(
            chirp, subject.beep_clouds(0.7, args.beeps, rng), rng
        )
        if broker is not None:
            workload.append(
                (
                    attempt,
                    spoofing,
                    AuthenticationRequest(
                        str(attempt),
                        tuple(recordings),
                        tenant=f"tenant-{attempt % max(1, args.tenants)}",
                    ),
                )
            )
        else:
            pending.append((attempt, spoofing, recordings))
            if len(pending) >= args.batch_size:
                flush_batch(pending)
        if args.dump_every and attempt % args.dump_every == 0:
            print("\n" + registry.render_prometheus())
    if broker is not None:
        from repro.serve import STATUS_SHED

        # Burst: all recorded attempts hit admission control at once, so
        # anything beyond the queue capacity sheds immediately.
        print(
            f"[burst: {len(workload)} requests into a capacity-"
            f"{args.broker_capacity} queue]"
        )
        futures = [
            (attempt, spoofing, broker.submit(request))
            for attempt, spoofing, request in workload
        ]
        drained = broker.drain()
        stuck = broker.pending
        shed = 0
        for attempt, spoofing, future in futures:
            response = future.result(timeout=60.0)
            if response.status == STATUS_SHED:
                shed += 1
                print(f"[{attempt:4d}] shed ({response.shed_reason})")
                continue
            note = ""
            if response.early_exit:
                note = f"  [early exit after {response.beeps_used} beeps]"
            elif response.degradation:
                note = f"  [degraded: {response.degradation}]"
            print_attempt(attempt, spoofing, response, note)
        print(
            f"\n[broker: served {broker.served}, shed {shed} "
            f"{broker.shed_counts}, drained="
            f"{'yes' if drained else 'NO'}, stuck {stuck}]"
        )
        broker.close()
    if pending:
        flush_batch(pending)
    server.close()

    elapsed = time.time() - started
    print(
        f"\nServed {args.attempts} attempts in {elapsed:.1f}s "
        f"({elapsed / args.attempts * 1e3:.0f} ms/attempt)"
    )
    print(f"drift alerts raised: {len(drift_alerts)}")
    for alert in drift_alerts:
        print(f"  {alert.message}")
    security = sentinel.alerts()
    print(f"security alerts raised: {len(security)}")
    for alert in security:
        print(f"  [{alert.severity}] {alert.rule}: {alert.message}")
    print("\n# Final metrics (Prometheus text exposition)")
    dump = registry.render_prometheus()
    print(dump, end="")
    if args.prom_file:
        with open(args.prom_file, "w", encoding="utf-8") as handle:
            handle.write(dump)
        print(f"[prometheus dump written to {args.prom_file}]")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json(indent=2))
        print(f"[metrics written to {args.metrics_json}]")
    if args.flight_json:
        recorder.dump(args.flight_json)
        print(f"[flight-recorder black box written to {args.flight_json}]")
    slo_doc = slo.evaluate()
    print("\n# SLO error budgets")
    for objective in slo_doc["objectives"]:
        print(
            f"  {objective['name']:<13} target {objective['target']:.3f}  "
            f"compliance {objective['compliance']:.4f}  "
            f"budget remaining {objective['budget_remaining']:+.3f}"
        )
    if capture_store is not None:
        from repro.obs import set_capture_store

        capture_store.close()  # drain background writes before summary
        print(
            f"[capture store: {len(capture_store)} requests in "
            f"{args.capture_dir}, bundles "
            f"{sorted(capture_store.bundle_hashes())} — replay with "
            f"scripts/replay_request.py <id> --capture-dir "
            f"{args.capture_dir}]"
        )
        set_capture_store(None)
    if ledger is not None:
        verdict = ledger.verify_chain()
        print(
            f"[audit ledger: {verdict.entries} entries, chain "
            f"{'intact' if verdict.ok else 'BROKEN: ' + str(verdict.reason)}]"
        )
        set_audit_ledger(None)
    if obs_server is not None:
        obs_server.stop()
    set_security_sentinel(None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
