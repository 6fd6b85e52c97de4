"""Profile the EchoImage pipeline on a synthetic scene.

Enrolls one synthetic user, authenticates a fresh attempt, and prints:

1. the per-attempt span tree (``AuthenticationResult.trace``),
2. the aggregated stage-latency table over every pipeline invocation,
3. a metrics-on vs metrics-off comparison of ``authenticate`` — the
   overhead of the metrics registry and drift monitors, which must
   stay well under 5% of the pipeline wall time.

Steps 2 and 3 are the source of the "Performance baseline" and
"Metrics & drift telemetry overhead" tables in EXPERIMENTS.md.

Run:  PYTHONPATH=src python scripts/profile_pipeline.py
      PYTHONPATH=src python scripts/profile_pipeline.py --beeps 20 --repeats 5
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import EchoImagePipeline
from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene
from repro.body.subject import SyntheticSubject
from repro.config import AuthenticationConfig, EchoImageConfig, ImagingConfig
from repro.obs import Profiler, set_metrics_enabled
from repro.signal.chirp import LFMChirp


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="EchoImage pipeline stage profiler"
    )
    parser.add_argument(
        "--beeps", type=int, default=10,
        help="beeps per authentication attempt (default 10, the paper's L)",
    )
    parser.add_argument(
        "--enroll-beeps", type=int, default=20,
        help="enrollment beeps (default 20)",
    )
    parser.add_argument(
        "--resolution", type=int, default=48,
        help="imaging-plane grid resolution (default 48)",
    )
    parser.add_argument(
        "--subbands", type=int, default=1,
        help="imaging sub-bands (default 1, the paper's imager)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats of the metrics comparison (default 3; at "
        "least 5 are run)",
    )
    parser.add_argument("--seed", type=int, default=7, help="scene seed")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    rng = np.random.default_rng(args.seed)

    scene = AcousticScene(
        noise=NoiseModel(kind="quiet", level_db_spl=30.0)
    )
    chirp = LFMChirp()
    user = SyntheticSubject(subject_id=1)
    config = EchoImageConfig(
        imaging=ImagingConfig(
            grid_resolution=args.resolution, subbands=args.subbands
        ),
        auth=AuthenticationConfig(svdd_margin=0.3),
    )
    pipeline = EchoImagePipeline(config=config)

    print(
        f"Scene: 1 user at 0.7 m, {args.enroll_beeps} enrollment beeps, "
        f"{args.beeps}-beep attempt, resolution {args.resolution}, "
        f"{args.subbands} sub-band(s)\n"
    )

    with Profiler() as profiler:
        enroll = scene.record_beeps(
            chirp, user.beep_clouds(0.7, args.enroll_beeps, rng), rng
        )
        pipeline.enroll_user(enroll)
        attempt = scene.record_beeps(
            chirp, user.beep_clouds(0.7, args.beeps, rng), rng
        )
        result = pipeline.authenticate(attempt)

    print("Per-attempt span tree (authenticate):")
    print(result.trace.format())
    print()
    print(profiler.report(title="Aggregated stage latency (enroll + auth)"))

    # --- metrics overhead ------------------------------------------------
    # Interleave the on/off measurements so OS/thermal drift hits both
    # sides equally; best-of filters the remaining scheduling noise.
    best = {True: float("inf"), False: float("inf")}
    try:
        for _ in range(max(args.repeats, 5)):
            for enabled in (True, False):
                set_metrics_enabled(enabled)
                started = time.perf_counter()
                pipeline.authenticate(attempt)
                best[enabled] = min(
                    best[enabled], time.perf_counter() - started
                )
    finally:
        set_metrics_enabled(True)
    with_metrics, without_metrics = best[True], best[False]
    overhead = (with_metrics - without_metrics) / without_metrics * 100
    print()
    print(
        f"Metrics/telemetry overhead, {len(attempt)}-beep authenticate "
        f"(interleaved, best of {max(args.repeats, 5)}):"
    )
    print(f"  metrics off: {without_metrics * 1e3:8.2f} ms")
    print(f"  metrics on:  {with_metrics * 1e3:8.2f} ms")
    print(f"  overhead:    {overhead:+8.2f}% of pipeline wall time")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
