"""Profile the EchoImage pipeline on a synthetic scene.

Enrolls one synthetic user, authenticates a fresh attempt, and prints:

1. the per-attempt span tree (``AuthenticationResult.trace``),
2. the aggregated stage-latency table over every pipeline invocation,
3. a cache-on vs cache-off comparison of repeated-beep imaging — the
   steering-geometry cache that PR 1 landed (grid angles/ranges memoized
   on the plane, per-band steering matrices reused across beeps),
4. a batched vs sequential imaging comparison — ``image_batch``
   (one filter-bank front end for the whole attempt, the serving
   layer's path) against the paper-shaped per-beep loop; both run the
   same per-beep window-covariance energy kernel,
5. a metrics-on vs metrics-off comparison of ``authenticate`` — the
   overhead of the PR 2 metrics registry and drift monitors, which must
   stay well under 5% of the pipeline wall time.

The numbers printed by steps 3-5 are the source of the
performance-baseline table in EXPERIMENTS.md.  ``--quick`` runs only
the batched-imaging smoke (bitwise parity + at-least-as-fast, the two
paths alternating within each repeat so CPU drift hits both) and exits
non-zero on regression; CI runs it on every push.

Run:  PYTHONPATH=src python scripts/profile_pipeline.py
      PYTHONPATH=src python scripts/profile_pipeline.py --beeps 20 --repeats 5
      PYTHONPATH=src python scripts/profile_pipeline.py --quick
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
from repro.core.imaging import AcousticImager
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
        help="timing repeats for the cache comparison (default 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: only compare batched vs sequential imaging on "
        "a >=4-beep attempt and exit non-zero unless the batched path is "
        "at least as fast (and numerically identical); used by CI",
    )
    parser.add_argument("--seed", type=int, default=7, help="scene seed")
    return parser.parse_args()


def image_once(
    imager: AcousticImager, recordings, plane, batched: bool = False
) -> float:
    """Wall time of imaging all recordings once from cold caches."""
    # A fresh equal plane forces cold plane-geometry memos while
    # exercising the imager exactly as authenticate() does.
    fresh_plane = type(plane)(
        distance_m=plane.distance_m,
        side_m=plane.side_m,
        resolution=plane.resolution,
        center_z_m=plane.center_z_m,
    )
    imager._steering_plane = None
    imager._steering_by_band = {}
    imager._gather_key = None
    imager._gather = None
    started = time.perf_counter()
    if batched:
        imager.image_batch(recordings, fresh_plane)
    else:
        imager.images(recordings, fresh_plane)
    return time.perf_counter() - started


def time_imaging(
    imager: AcousticImager, recordings, plane, repeats: int
) -> float:
    """Best-of-``repeats`` wall time of imaging all recordings once."""
    return min(
        image_once(imager, recordings, plane) for _ in range(repeats)
    )


def time_sequential_vs_batched(
    imager: AcousticImager, recordings, plane, repeats: int
) -> tuple[float, float]:
    """Best-of-``repeats`` ``(images, image_batch)`` wall times.

    Each repeat times both paths, alternating which goes first, so CPU
    drift over the measurement lands on both sides alike.
    """
    best = {False: float("inf"), True: float("inf")}
    for repeat in range(repeats):
        for batched in (False, True) if repeat % 2 == 0 else (True, False):
            best[batched] = min(
                best[batched],
                image_once(imager, recordings, plane, batched=batched),
            )
    return best[False], best[True]


def run_quick(args) -> int:
    """CI smoke: batched imaging must match and beat the sequential loop."""
    from repro.core.imaging import ImagingPlane

    rng = np.random.default_rng(args.seed)
    scene = AcousticScene(noise=NoiseModel(kind="quiet", level_db_spl=30.0))
    chirp = LFMChirp()
    user = SyntheticSubject(subject_id=1)
    num_beeps = max(args.beeps, 4)
    config = EchoImageConfig(
        imaging=ImagingConfig(
            grid_resolution=args.resolution, subbands=args.subbands
        )
    )
    attempt = scene.record_beeps(
        chirp, user.beep_clouds(0.7, num_beeps, rng), rng
    )
    imager = AcousticImager(
        array=scene.array, beep=config.beep, config=config.imaging
    )
    plane = ImagingPlane.from_config(0.75, config.imaging)

    sequential = imager.images(attempt, plane)
    batched = imager.image_batch(attempt, plane)
    for index, (seq, bat) in enumerate(zip(sequential, batched)):
        if not np.array_equal(seq, bat):
            print(
                f"FAIL: batched image {index} differs from the "
                f"sequential path (max |err| "
                f"{np.max(np.abs(seq - bat)):.3e})"
            )
            return 1

    repeats = max(args.repeats, 5)
    loop_s, batch_s = time_sequential_vs_batched(
        imager, attempt, plane, repeats
    )
    speedup = loop_s / batch_s
    print(
        f"Batched imaging smoke ({num_beeps} beeps, resolution "
        f"{args.resolution}, interleaved, best of {repeats}):"
    )
    print(f"  sequential loop: {loop_s * 1e3:8.2f} ms")
    print(f"  image_batch:     {batch_s * 1e3:8.2f} ms")
    print(f"  speedup:         {speedup:8.2f}x")
    if batch_s > loop_s:
        print("FAIL: batched imaging is slower than the sequential loop")
        return 1
    print("OK: batched path matches bitwise and is at least as fast")
    return 0


def main() -> int:
    args = parse_args()
    if args.quick:
        return run_quick(args)
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

    # --- steering-cache comparison --------------------------------------
    plane = pipeline.imaging_plane(
        result.distance.user_distance_m
    )
    cached = pipeline.imager
    uncached = AcousticImager(
        array=pipeline.array,
        beep=config.beep,
        config=config.imaging,
        steering_cache=False,
    )
    cold = time_imaging(uncached, attempt, plane, args.repeats)
    warm = time_imaging(cached, attempt, plane, args.repeats)
    per_image_cold = cold / len(attempt) * 1e3
    per_image_warm = warm / len(attempt) * 1e3
    print()
    print(
        f"Steering-geometry cache, {len(attempt)}-beep attempt "
        f"(best of {args.repeats}):"
    )
    print(
        f"  cache off: {cold * 1e3:8.2f} ms total "
        f"({per_image_cold:6.2f} ms/image)"
    )
    print(
        f"  cache on:  {warm * 1e3:8.2f} ms total "
        f"({per_image_warm:6.2f} ms/image)"
    )
    print(f"  speedup:   {cold / warm:8.2f}x")

    # --- batched vs sequential imaging -----------------------------------
    # Both paths start from cold steering/gather caches each repeat, so
    # the comparison isolates the batching itself: one filter-bank front
    # end and steering set per attempt vs the per-beep loop.
    loop_s, batch_s = time_sequential_vs_batched(
        cached, attempt, plane, args.repeats
    )
    print()
    print(
        f"Batched imaging (image_batch), {len(attempt)}-beep attempt "
        f"(interleaved, best of {args.repeats}):"
    )
    print(f"  sequential loop: {loop_s * 1e3:8.2f} ms")
    print(f"  image_batch:     {batch_s * 1e3:8.2f} ms")
    print(f"  speedup:         {loop_s / batch_s:8.2f}x")

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
