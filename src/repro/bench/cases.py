"""The benchmark-case catalogue over the EchoImage hot paths.

Perf cases cover each kernel the serving stack leans on — the matched
filter, MVDR steering/covariance/weights, imaging one beep and an
8-beep stack, CNN embedding extraction — plus the end-to-end paths
(``Pipeline.authenticate`` and :class:`repro.serve.BatchAuthenticator`
batch throughput on every backend).  Quality cases re-run the paper's
evaluation protocol (:mod:`repro.eval.experiments`) at small fixed seeds
and track the headline numbers: the SVDD-gate EER, identification
accuracy and spoofer detection.

All workloads are deterministic (fixed seeds, fixed shapes) and shared
through the memoizing :class:`BenchContext`, so setup cost — scene
simulation, enrollment, worker-pool spawns — is paid once per session
and never lands inside a timed region.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import perf_case, quality_case

#: Base seed of every bench workload; changing it invalidates baselines.
BENCH_SEED = 20230048

#: Imaging resolution of the bench pipelines (small enough for CI; the
#: CNN and ranging outweigh imaging in authenticate() at this size).
BENCH_RESOLUTION = 24

#: Beeps per authentication attempt in the end-to-end cases.
ATTEMPT_BEEPS = 4

#: Requests per served batch in the throughput cases.
BATCH_REQUESTS = 6

#: Beeps per request in the served batches (kept small; throughput
#: cases measure dispatch + pipeline, not one giant attempt).
BATCH_BEEPS = 2

#: Beeps per request in the streaming cases — long enough that an early
#: exit skips real imaging work.
STREAM_BEEPS = 4

#: Early-exit score threshold of the streaming cases.  Calibrated by the
#: ``stream-exit`` experiment sweep (EXPERIMENTS.md): at this setting
#: every bench attempt keeps its batch decision while confident attempts
#: stop after the first beep.
STREAM_SCORE_THRESHOLD = 0.02

#: Inner-loop factor of the sub-100µs array kernels.  A timed region
#: that small is dominated by scheduler and CPU-frequency jitter on
#: small VMs — between-run medians swing 2x while the within-run IQR
#: stays tiny, so the gate's pooled-IQR key cannot absorb the swing.
#: Looping puts each timed invocation in the stable millisecond range;
#: the recorded time is for the whole loop.
MICRO_LOOP = 25


def _looped(fn, n: int = MICRO_LOOP):
    def run():
        for _ in range(n):
            fn()

    return run


class BenchContext:
    """Memoized deterministic workloads shared by the bench cases.

    Args:
        seed: Base RNG seed of every synthetic workload.

    Every factory is cached under a key, so two cases asking for the
    enrolled pipeline get the same object and the session pays
    enrollment once.  Serving pools opened by :meth:`authenticator` are
    closed by :meth:`close` (the runner calls it).
    """

    def __init__(self, seed: int = BENCH_SEED) -> None:
        self.seed = seed
        self._memo: dict = {}
        self._authenticators: dict = {}
        self._temp_dirs: list = []

    def memo(self, key, build):
        """Build-once cache: ``build()`` runs only for an unseen key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def close(self) -> None:
        """Shut down serving pools and delete on-disk store roots."""
        for authenticator in self._authenticators.values():
            authenticator.close()
        self._authenticators.clear()
        import shutil

        for path in self._temp_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._temp_dirs.clear()

    def __enter__(self) -> "BenchContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scene & signals ----------------------------------------------

    def scene(self):
        """A quiet ReSpeaker-array scene (the paper's lab setup)."""

        def build():
            from repro.acoustics.noise import NoiseModel
            from repro.acoustics.scene import AcousticScene
            from repro.array.geometry import respeaker_array

            return AcousticScene(
                array=respeaker_array(),
                noise=NoiseModel(kind="quiet", level_db_spl=30.0),
            )

        return self.memo("scene", build)

    def chirp(self):
        """The paper's probing chirp."""

        def build():
            from repro.signal.chirp import LFMChirp

            return LFMChirp()

        return self.memo("chirp", build)

    def recordings(self, subject_id: int, num_beeps: int, seed_offset: int):
        """Deterministic beep captures of one synthetic subject."""

        def build():
            from repro.body.subject import SyntheticSubject

            rng = np.random.default_rng(self.seed + seed_offset)
            subject = SyntheticSubject(subject_id=subject_id)
            clouds = subject.beep_clouds(0.7, num_beeps, rng)
            return self.scene().record_beeps(self.chirp(), clouds, rng)

        return self.memo(("recordings", subject_id, num_beeps, seed_offset),
                         build)

    # -- enrolled pipeline --------------------------------------------

    def config(self):
        """The bench pipeline configuration (fixed, small)."""

        def build():
            from repro.config import (
                AuthenticationConfig,
                EchoImageConfig,
                ImagingConfig,
            )

            return EchoImageConfig(
                imaging=ImagingConfig(grid_resolution=BENCH_RESOLUTION),
                auth=AuthenticationConfig(svdd_margin=0.3),
            )

        return self.memo("config", build)

    def pipeline(self):
        """A single-user pipeline enrolled on subject 1."""

        def build():
            from repro.core.pipeline import EchoImagePipeline

            pipeline = EchoImagePipeline(config=self.config())
            pipeline.enroll_user(self.recordings(1, 3 * ATTEMPT_BEEPS, 0))
            return pipeline

        return self.memo("pipeline", build)

    def attempt(self):
        """A fresh legitimate authentication attempt."""
        return self.recordings(1, ATTEMPT_BEEPS, 1)

    def plane(self):
        """The imaging plane at the attempt's estimated distance."""

        def build():
            pipeline = self.pipeline()
            distance = pipeline.estimate_distance(self.attempt())
            return pipeline.imaging_plane(distance.user_distance_m)

        return self.memo("plane", build)

    def images(self):
        """The attempt's acoustic images (feature-extraction input)."""
        return self.memo(
            "images",
            lambda: self.pipeline().imager.images(self.attempt(),
                                                  self.plane()),
        )

    # -- serving ------------------------------------------------------

    def bundle(self):
        """The enrolled pipeline snapshotted for serving."""

        def build():
            from repro.serve import ModelBundle

            return ModelBundle.from_pipeline(self.pipeline())

        return self.memo("bundle", build)

    def requests(self):
        """The served batch: deterministic requests over fresh attempts."""

        def build():
            from repro.serve import AuthenticationRequest

            return [
                AuthenticationRequest(
                    f"bench-{i}",
                    tuple(self.recordings(1, BATCH_BEEPS, 100 + i)),
                )
                for i in range(BATCH_REQUESTS)
            ]

        return self.memo("requests", build)

    def stream_requests(self):
        """The streaming batch: longer attempts so early exit matters."""

        def build():
            from repro.serve import AuthenticationRequest

            return [
                AuthenticationRequest(
                    f"bench-stream-{i}",
                    tuple(self.recordings(1, STREAM_BEEPS, 400 + i)),
                )
                for i in range(BATCH_REQUESTS)
            ]

        return self.memo("stream_requests", build)

    def exit_policy(self):
        """The bench early-exit policy (calibrated threshold)."""

        def build():
            from repro.config import ExitPolicy

            return ExitPolicy(
                min_beeps=1, score_threshold=STREAM_SCORE_THRESHOLD
            )

        return self.memo("exit_policy", build)

    def authenticator(self, backend: str):
        """A live :class:`BatchAuthenticator` on ``backend`` (pooled)."""
        if backend not in self._authenticators:
            from repro.config import ServingConfig
            from repro.serve import BatchAuthenticator

            self._authenticators[backend] = BatchAuthenticator(
                self.bundle(), ServingConfig(backend=backend)
            )
        return self._authenticators[backend]

    def audit_ledger(self):
        """A throwaway on-disk audit ledger (deleted by :meth:`close`)."""

        def build():
            import os
            import tempfile

            from repro.obs import AuditLedger

            root = tempfile.mkdtemp(prefix="bench-audit-")
            self._temp_dirs.append(root)
            return AuditLedger(os.path.join(root, "audit.jsonl"))

        return self.memo("audit_ledger", build)

    def capture_store(self):
        """A throwaway on-disk capture store (deleted by :meth:`close`)."""

        def build():
            import tempfile

            from repro.obs import CaptureStore

            root = tempfile.mkdtemp(prefix="bench-capture-")
            self._temp_dirs.append(root)
            return CaptureStore(
                root=root, max_captures=256, async_persist=True
            )

        return self.memo("capture_store", build)

    # -- sharded enrollment store -------------------------------------

    #: Embedding dimensionality of the synthetic store populations.
    #: Identification cost is dimension-linear in stage 1 and
    #: kernel-evaluation-bound in stage 2, so a compact dimension keeps
    #: the 1000-user setup inside CI budgets without changing the
    #: scaling shape the ``identify.pop_*`` cases measure.
    STORE_DIM = 16

    #: Enrollment embeddings per synthetic store user.
    STORE_SAMPLES = 6

    def population(self, num_users: int):
        """Deterministic synthetic embedding clusters for ``num_users``.

        Returns:
            ``(centers, per_user)`` — per-user cluster centres and a
            label -> ``(STORE_SAMPLES, STORE_DIM)`` embedding mapping.
        """

        def build():
            rng = np.random.default_rng(self.seed + 7 * num_users)
            centers = rng.normal(0.0, 10.0, (num_users, self.STORE_DIM))
            per_user = {
                f"user-{i:04d}": centers[i]
                + rng.normal(0.0, 0.5, (self.STORE_SAMPLES, self.STORE_DIM))
                for i in range(num_users)
            }
            return centers, per_user

        return self.memo(("population", num_users), build)

    def enrollment_store(self, num_users: int):
        """An on-disk sharded store enrolled with ``num_users`` users.

        Shard count scales with the population (target ~8 users per
        shard) so stage-2 cost stays flat by construction — exactly the
        deployment guidance of ``docs/SCALING.md``.
        """

        def build():
            import tempfile

            from repro.io.store import EnrollmentStore

            _, per_user = self.population(num_users)
            root = tempfile.mkdtemp(prefix=f"bench-store-{num_users}-")
            self._temp_dirs.append(root)
            store = EnrollmentStore.open(
                root,
                num_shards=max(1, num_users // 8),
                candidate_k=8,
            )
            store.enroll_batch(per_user)
            return store

        return self.memo(("store", num_users), build)

    def store_probe(self, num_users: int):
        """A fresh 4-sample attempt by a mid-population enrolled user."""

        def build():
            centers, _ = self.population(num_users)
            rng = np.random.default_rng(self.seed + 13 * num_users)
            return centers[num_users // 2] + rng.normal(
                0.0, 0.5, (4, self.STORE_DIM)
            )

        return self.memo(("store_probe", num_users), build)

    # -- multi-user evaluation ----------------------------------------

    def overall_performance(self):
        """The Figure-11 protocol at a small fixed workload."""

        def build():
            from repro.eval.experiments import run_overall_performance

            return run_overall_performance(
                num_registered=3,
                num_spoofers=2,
                train_chirps=12,
                test_chirps=6,
                config=self.config(),
                seed_base=self.seed,
            )

        return self.memo("overall_performance", build)

    def gate_scores(self):
        """Per-beep SVDD scores of legit vs spoofer attempts.

        Returns:
            ``(genuine, impostor)`` score arrays from 6 attempts each of
            subject 1 (enrolled) and subject 9 (never enrolled) against
            the single-user pipeline.
        """

        def build():
            pipeline = self.pipeline()
            genuine: list[float] = []
            impostor: list[float] = []
            for i in range(6):
                legit = self.recordings(1, BATCH_BEEPS, 200 + i)
                genuine.extend(pipeline.authenticate(legit).scores)
                spoof = self.recordings(9, BATCH_BEEPS, 300 + i)
                impostor.extend(pipeline.authenticate(spoof).scores)
            return np.asarray(genuine), np.asarray(impostor)

        return self.memo("gate_scores", build)


# ---------------------------------------------------------------------------
# Perf cases — kernels
# ---------------------------------------------------------------------------


@perf_case(
    "signal.matched_filter",
    group="signal",
    description="Matched-filter an 8-beep, 6-channel capture stack "
    "against the probing chirp",
)
def _bench_matched_filter(ctx: BenchContext):
    from repro.signal.correlation import matched_filter

    template = ctx.chirp().samples()
    stack = np.stack(
        [np.real(r.samples) for r in ctx.recordings(1, 8, 50)]
    )

    return lambda: matched_filter(stack, template)


@perf_case(
    "array.steering_vectors",
    group="array",
    description="Steering matrix for a 24x24 imaging grid "
    "(576 look directions, 6 mics), x25 per timed invocation",
)
def _bench_steering(ctx: BenchContext):
    from repro.array.beamforming import MVDRBeamformer

    beamformer = MVDRBeamformer(array=ctx.scene().array)
    grid = np.linspace(-0.8, 0.8, BENCH_RESOLUTION**2)

    return _looped(lambda: beamformer.steering_batch(grid, grid))


@perf_case(
    "array.mvdr_weights",
    group="array",
    description="MVDR weights for 576 look directions from a "
    "precomputed steering matrix, x25 per timed invocation",
)
def _bench_mvdr_weights(ctx: BenchContext):
    from repro.array.beamforming import MVDRBeamformer

    beamformer = MVDRBeamformer(array=ctx.scene().array)
    grid = np.linspace(-0.8, 0.8, BENCH_RESOLUTION**2)
    steering = beamformer.steering_batch(grid, grid)

    return _looped(
        lambda: beamformer.weights_batch(grid, grid, steering)
    )


@perf_case(
    "array.noise_covariance",
    group="array",
    description="Sample covariance + diagonal loading over a 6-channel "
    "noise capture, x25 per timed invocation",
)
def _bench_covariance(ctx: BenchContext):
    from repro.array.covariance import diagonal_loading, sample_covariance

    rng = np.random.default_rng(ctx.seed)
    snapshots = (
        rng.standard_normal((6, 4096)) + 1j * rng.standard_normal((6, 4096))
    )

    return _looped(
        lambda: diagonal_loading(sample_covariance(snapshots), 1e-3)
    )


@perf_case(
    "distance.estimate",
    group="distance",
    description="Echo-delay distance estimation over a 4-beep attempt",
)
def _bench_distance(ctx: BenchContext):
    pipeline = ctx.pipeline()
    attempt = ctx.attempt()

    return lambda: pipeline.estimate_distance(attempt)


@perf_case(
    "imaging.image",
    group="imaging",
    description="Single-beep acoustic image on a warm 24x24 plane "
    "(the paper's per-beep imager)",
)
def _bench_image(ctx: BenchContext):
    imager = ctx.pipeline().imager
    plane = ctx.plane()
    recording = ctx.attempt()[0]
    imager.image(recording, plane)  # build the plane's steering table

    return lambda: imager.image(recording, plane)


@perf_case(
    "imaging.image_batch",
    group="imaging",
    description="Imaging an 8-beep stack in one call on a warm 24x24 "
    "plane (one stacked front end, the enrollment path)",
)
def _bench_image_batch(ctx: BenchContext):
    imager = ctx.pipeline().imager
    plane = ctx.plane()
    recordings = ctx.recordings(1, 8, 60)
    imager.images(recordings, plane)  # build the plane's steering table

    return lambda: imager.images(recordings, plane)


@perf_case(
    "features.extract",
    group="features",
    description="Frozen-CNN embedding extraction over a 4-image attempt",
)
def _bench_features(ctx: BenchContext):
    extractor = ctx.pipeline().feature_extractor
    images = ctx.images()

    return lambda: extractor.extract(images)


# ---------------------------------------------------------------------------
# Perf cases — end-to-end paths
# ---------------------------------------------------------------------------


@perf_case(
    "pipeline.authenticate",
    group="pipeline",
    description="End-to-end authentication of a 4-beep attempt "
    "(distance -> imaging -> features -> decision)",
)
def _bench_authenticate(ctx: BenchContext):
    pipeline = ctx.pipeline()
    attempt = ctx.attempt()

    return lambda: pipeline.authenticate(attempt)


def _serve_builder(backend: str):
    def build(ctx: BenchContext):
        authenticator = ctx.authenticator(backend)
        requests = ctx.requests()
        authenticator.authenticate_batch(requests)  # spawn/warm the pool

        return lambda: authenticator.authenticate_batch(requests)

    return build


perf_case(
    "serve.batch_serial",
    group="serve",
    description=f"BatchAuthenticator throughput, serial backend "
    f"({BATCH_REQUESTS} requests x {BATCH_BEEPS} beeps)",
)(_serve_builder("serial"))

perf_case(
    "serve.batch_thread",
    group="serve",
    description=f"BatchAuthenticator throughput, thread backend "
    f"({BATCH_REQUESTS} requests x {BATCH_BEEPS} beeps)",
)(_serve_builder("thread"))

@perf_case(
    "serve.batch_audited",
    group="serve",
    description=f"BatchAuthenticator throughput, serial backend, with "
    f"the hash-chained audit ledger enabled ({BATCH_REQUESTS} requests "
    f"x {BATCH_BEEPS} beeps; compare against serve.batch_serial for the "
    "audit/correlation overhead)",
)
def _bench_batch_audited(ctx: BenchContext):
    from repro.obs import set_audit_ledger

    authenticator = ctx.authenticator("serial")
    requests = ctx.requests()
    ledger = ctx.audit_ledger()
    authenticator.authenticate_batch(requests)  # warm caches sans ledger

    def run():
        set_audit_ledger(ledger)
        try:
            authenticator.authenticate_batch(requests)
        finally:
            set_audit_ledger(None)

    return run


@perf_case(
    "serve.stream_quick",
    group="serve",
    description=f"Streaming authentication with calibrated early exit, "
    f"serial backend ({BATCH_REQUESTS} requests x {STREAM_BEEPS} beeps, "
    f"score threshold {STREAM_SCORE_THRESHOLD}; compare against "
    "serve.stream_exact for the early-exit win)",
)
def _bench_stream_quick(ctx: BenchContext):
    authenticator = ctx.authenticator("serial")
    requests = ctx.stream_requests()
    policy = ctx.exit_policy()
    authenticator.authenticate_streaming(requests, policy)  # warm caches

    return lambda: authenticator.authenticate_streaming(requests, policy)


@perf_case(
    "serve.stream_exact",
    group="serve",
    description=f"Streaming authentication with early exit disabled "
    f"(the same attempt loop as the batch path), serial backend "
    f"({BATCH_REQUESTS} requests x {STREAM_BEEPS} beeps); the baseline "
    "for serve.stream_quick",
)
def _bench_stream_exact(ctx: BenchContext):
    from repro.config import ExitPolicy

    authenticator = ctx.authenticator("serial")
    requests = ctx.stream_requests()
    policy = ExitPolicy()  # threshold inf: never exits
    authenticator.authenticate_streaming(requests, policy)  # warm caches

    return lambda: authenticator.authenticate_streaming(requests, policy)


perf_case(
    "serve.batch_process",
    group="serve",
    quick=False,
    description=f"BatchAuthenticator throughput, process backend "
    f"({BATCH_REQUESTS} requests x {BATCH_BEEPS} beeps; full suite "
    "only — pool spawn dominates quick budgets)",
    timer={"warmup": 1, "max_time_s": 10.0},
)(_serve_builder("process"))


# ---------------------------------------------------------------------------
# Perf cases — sharded identification at growing populations
# ---------------------------------------------------------------------------

#: Inner-loop factor of the identify cases: one two-stage lookup sits in
#: the hundreds-of-microseconds range, same jitter regime as the array
#: kernels above.
IDENTIFY_LOOP = 10


def _identify_builder(num_users: int):
    def build(ctx: BenchContext):
        store = ctx.enrollment_store(num_users)
        probe = ctx.store_probe(num_users)
        store.identify(probe)  # warm the candidate shards' lazy loads

        return _looped(lambda: store.identify(probe), n=IDENTIFY_LOOP)

    return build


for _pop in (10, 100, 1000):
    perf_case(
        f"identify.pop_{_pop}",
        group="identify",
        description=f"Two-stage store identification against {_pop} "
        f"enrolled users (centroid prefilter -> shard SVM, k=8, "
        f"x{IDENTIFY_LOOP} per timed invocation)",
        timer={"warmup": 1, "max_time_s": 10.0},
    )(_identify_builder(_pop))
del _pop


# ---------------------------------------------------------------------------
# Quality cases — reproduced numbers at fixed seeds
# ---------------------------------------------------------------------------


@quality_case(
    "quality.eer",
    group="quality",
    unit="rate",
    higher_is_better=False,
    description="SVDD-gate equal error rate, 6 legit vs 6 spoofer "
    "attempts at seed 20230048",
)
def _quality_eer(ctx: BenchContext):
    from repro.ml.roc import roc_curve

    genuine, impostor = ctx.gate_scores()
    curve = roc_curve(genuine, impostor)
    return float(curve.equal_error_rate()), {
        "genuine_scores": int(genuine.size),
        "impostor_scores": int(impostor.size),
        "auc": float(curve.auc),
    }


@quality_case(
    "quality.identification_accuracy",
    group="quality",
    unit="rate",
    higher_is_better=True,
    description="n-class SVM identification accuracy on accepted images "
    "(Figure-11 protocol, 3 users / 2 spoofers, seed 20230048)",
)
def _quality_identification(ctx: BenchContext):
    result = ctx.overall_performance()
    return float(result.identification_accuracy), {
        "num_registered": 3,
        "num_spoofers": 2,
    }


@quality_case(
    "quality.spoofer_detection",
    group="quality",
    unit="rate",
    higher_is_better=True,
    description="Fraction of spoofer images rejected by the SVDD gate "
    "(Figure-11 protocol, seed 20230048)",
)
def _quality_spoofer_detection(ctx: BenchContext):
    result = ctx.overall_performance()
    return float(result.spoofer_accuracy), {
        "num_registered": 3,
        "num_spoofers": 2,
    }


#: Fractional serving-latency budget shared by the instrumentation
#: overhead cases (audit ledger, request capture, security sentinel).
OVERHEAD_BUDGET = 0.05


def _overhead_exceedance(plain, instrumented, detail_key: str):
    """Budget exceedance of an instrumented serial batch over plain.

    Samples the two modes back-to-back in pairs and takes the median of
    the per-pair ratios: a whole serial batch runs ~200ms, so two
    sequential measurement blocks straddle enough wall-clock for
    machine-load drift to dwarf the few-percent signal being measured;
    pairing cancels the drift.  The *gated* value is the exceedance
    over :data:`OVERHEAD_BUDGET` — zero while the overhead stays
    inside the budget — so the quality gate's absolute tolerance
    compares against the budget line rather than against whichever
    noise the baseline run happened to catch (the raw overhead stays
    visible in the details).
    """
    import statistics
    import time

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    plain(), instrumented()  # warm both paths (caches, pools, stores)
    plain_s, instrumented_s = [], []
    deadline = time.perf_counter() + 10.0
    for _ in range(9):
        plain_s.append(timed(plain))
        instrumented_s.append(timed(instrumented))
        if time.perf_counter() > deadline and len(plain_s) >= 5:
            break
    # Noise can flip a pair's sign; the tracked number is the overhead,
    # not a speedup, so clamp at zero.
    overhead = max(0.0, statistics.median(
        i / p - 1.0 for p, i in zip(plain_s, instrumented_s)
    ))
    return max(0.0, overhead - OVERHEAD_BUDGET), {
        "overhead": overhead,
        "plain_median_s": statistics.median(plain_s),
        detail_key: statistics.median(instrumented_s),
        "pairs": len(plain_s),
        "budget": OVERHEAD_BUDGET,
    }


@quality_case(
    "quality.audit_overhead",
    group="quality",
    unit="rate",
    higher_is_better=False,
    description="Serving-latency overhead of correlation + audit-ledger "
    "writes beyond the 0.05 budget (paired audited-vs-plain serial "
    "batches; 0.0 while within budget)",
)
def _quality_audit_overhead(ctx: BenchContext):
    from repro.obs import set_audit_ledger

    authenticator = ctx.authenticator("serial")
    requests = ctx.requests()
    ledger = ctx.audit_ledger()

    def plain():
        authenticator.authenticate_batch(requests)

    def audited():
        set_audit_ledger(ledger)
        try:
            authenticator.authenticate_batch(requests)
        finally:
            set_audit_ledger(None)

    return _overhead_exceedance(plain, audited, "audited_median_s")


@quality_case(
    "quality.capture_overhead",
    group="quality",
    unit="rate",
    higher_is_better=False,
    description="Serving-latency overhead of per-request capture "
    "(digests + arrays + background disk persist) beyond the 0.05 "
    "budget (paired captured-vs-plain serial batches; 0.0 while "
    "within budget)",
)
def _quality_capture_overhead(ctx: BenchContext):
    from repro.obs import set_capture_store

    authenticator = ctx.authenticator("serial")
    requests = ctx.requests()
    store = ctx.capture_store()

    def plain():
        authenticator.authenticate_batch(requests)

    def captured():
        set_capture_store(store)
        try:
            authenticator.authenticate_batch(requests)
        finally:
            set_capture_store(None)

    return _overhead_exceedance(plain, captured, "captured_median_s")


@quality_case(
    "quality.sentinel_overhead",
    group="quality",
    unit="rate",
    higher_is_better=False,
    description="Serving-latency overhead of the security sentinel's "
    "streaming detectors beyond the 0.05 budget (paired "
    "sentinel-vs-plain serial batches; 0.0 while within budget)",
)
def _quality_sentinel_overhead(ctx: BenchContext):
    from repro.obs import SecuritySentinel, set_security_sentinel

    authenticator = ctx.authenticator("serial")
    requests = ctx.requests()
    sentinel = SecuritySentinel()

    def plain():
        authenticator.authenticate_batch(requests)

    def guarded():
        set_security_sentinel(sentinel)
        try:
            authenticator.authenticate_batch(requests)
        finally:
            set_security_sentinel(None)

    return _overhead_exceedance(plain, guarded, "guarded_median_s")


@quality_case(
    "quality.stream_agreement",
    group="quality",
    unit="rate",
    higher_is_better=True,
    description="Fraction of streaming early-exit decisions that match "
    "the batch decision, 4 legit + 4 spoofer attempts at the calibrated "
    f"threshold {STREAM_SCORE_THRESHOLD} (details carry the early-exit "
    "fraction and mean beeps consumed)",
)
def _quality_stream_agreement(ctx: BenchContext):
    pipeline = ctx.pipeline()
    policy = ctx.exit_policy()
    attempts = [ctx.recordings(1, STREAM_BEEPS, 500 + i) for i in range(4)]
    attempts += [ctx.recordings(9, STREAM_BEEPS, 600 + i) for i in range(4)]
    agreed = 0
    exited = 0
    beeps = 0
    for attempt in attempts:
        batch = pipeline.authenticate(list(attempt))
        stream = pipeline.authenticate_streaming(list(attempt), policy)
        agreed += stream.label == batch.label
        exited += stream.early_exit
        beeps += stream.beeps_used
    num = len(attempts)
    return agreed / num, {
        "num_attempts": num,
        "early_exit_fraction": exited / num,
        "mean_beeps": beeps / num,
        "beeps_per_attempt": STREAM_BEEPS,
        "score_threshold": STREAM_SCORE_THRESHOLD,
    }


@quality_case(
    "quality.prefilter_recall",
    group="quality",
    unit="rate",
    higher_is_better=True,
    description="Fraction of fresh probes whose true user survives the "
    "stage-1 centroid prefilter (100-user store, k=8, seed 20230048)",
)
def _quality_prefilter_recall(ctx: BenchContext):
    num_users = 100
    store = ctx.enrollment_store(num_users)
    centers, _ = ctx.population(num_users)
    rng = np.random.default_rng(ctx.seed + 17)
    probed = rng.choice(num_users, size=20, replace=False)
    hits = 0
    for user in probed:
        probe = centers[user] + rng.normal(
            0.0, 0.5, (4, BenchContext.STORE_DIM)
        )
        candidates = store.prefilter.candidates(probe, store.candidate_k)
        hits += f"user-{user:04d}" in candidates
    return hits / probed.size, {
        "num_users": num_users,
        "num_probes": int(probed.size),
        "k": store.candidate_k,
    }
