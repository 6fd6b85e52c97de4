"""Command-line interface for running the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig5 fig8
    python -m repro.cli run fig11 --scale 0.5
    python -m repro.cli run all --scale 0.25
    python -m repro.cli run fig11 --profile
    python -m repro.cli run fig5 --profile --profile-json stages.json
    python -m repro.cli run fig11 --metrics
    python -m repro.cli run drift --metrics-json metrics.json
    python -m repro.cli run fig11 --metrics --obs-port 9102
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.eval import experiments
from repro.eval.reporting import (
    format_confusion_matrix,
    format_series,
    format_table,
)


def _print_fig5(scale: float) -> None:
    result = experiments.run_distance_feasibility(num_beeps=20)
    estimate = result.estimate
    print(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["slant distance D_f (m)", result.paper_d_f,
                 estimate.slant_distance_m],
                ["user distance D_p (m)", result.paper_d_p,
                 estimate.user_distance_m],
                ["echo delay (ms)", 4.0, estimate.echo_delay_s * 1000],
            ],
            title="Figure 5 — distance-estimation feasibility (truth 0.6 m)",
        )
    )


def _print_fig8(scale: float) -> None:
    result = experiments.run_image_feasibility()
    print(
        format_table(
            ["pair type", "mean correlation"],
            [
                ["same user", result.intra_user_similarity],
                ["different users", result.inter_user_similarity],
            ],
            title="Figure 8 — acoustic-image similarity",
        )
    )


def _print_table1(scale: float) -> None:
    from repro.body.population import TABLE_I_DEMOGRAPHICS

    print(
        format_table(
            ["user", "gender", "age", "occupation"],
            [
                [e.user_id, e.gender, e.age_range, e.occupation]
                for e in TABLE_I_DEMOGRAPHICS
            ],
            title="Table I — demographics",
        )
    )


def _print_fig11(scale: float) -> None:
    result = experiments.run_overall_performance(scale=scale)
    print(
        format_confusion_matrix(
            result.matrix,
            [str(label) for label in result.labels],
            title="Figure 11 — confusion matrix (label -1 = spoofer)",
        )
    )
    print(
        format_table(
            ["metric", "paper", "measured"],
            [
                ["registered-user accuracy", 0.98, result.user_accuracy],
                ["spoofer detection", 0.97, result.spoofer_accuracy],
                ["identification (accepted)", 0.98,
                 result.identification_accuracy],
            ],
        )
    )


def _print_fig12(scale: float) -> None:
    result = experiments.run_environment_robustness(scale=scale)
    rows = []
    for environment, by_noise in result.metrics.items():
        for noise_kind, metrics in by_noise.items():
            rows.append(
                [environment, noise_kind, metrics["recall"],
                 metrics["precision"], metrics["accuracy"]]
            )
    print(
        format_table(
            ["environment", "noise", "recall", "precision", "accuracy"],
            rows,
            title="Figure 12 — environment robustness",
        )
    )


def _print_fig13(scale: float) -> None:
    result = experiments.run_distance_sweep(scale=scale)
    print(
        format_series(
            "distance (m)",
            list(result.distances_m),
            result.f_measures,
            title="Figure 13 — F-measure vs distance",
        )
    )


def _print_fig14(scale: float) -> None:
    result = experiments.run_augmentation_study(scale=scale)
    rows = []
    for i, size in enumerate(result.train_sizes):
        for variant in ("plain", "augmented"):
            metrics = result.metrics[variant][i]
            rows.append([size, variant, metrics["accuracy"]])
    print(
        format_table(
            ["train beeps", "variant", "accuracy"],
            rows,
            title="Figure 14 — data augmentation",
        )
    )


def _print_drift(scale: float) -> None:
    result = experiments.run_drift_detection(scale=scale)
    print(
        format_table(
            ["stream", "attempts", "alerts", "first alert"],
            [
                [
                    "stable",
                    result.num_observations,
                    len(result.stable_alerts),
                    result.stable_alerts[0].kind
                    if result.stable_alerts
                    else "-",
                ],
                [
                    "shifted",
                    result.num_observations,
                    len(result.shifted_alerts),
                    result.shifted_alerts[0].kind
                    if result.shifted_alerts
                    else "-",
                ],
            ],
            title="Drift detection — SVDD score streams vs enrollment "
            "baseline",
        )
    )
    for alert in result.shifted_alerts:
        print(f"  alert: {alert.message}")


def _print_serve_batch(scale: float) -> None:
    rows = []
    for backend in ("serial", "thread"):
        result = experiments.run_serve_batch(backend=backend, scale=scale)
        outcomes = ", ".join(
            f"{status}={count}"
            for status, count in sorted(result.outcomes.items())
        )
        rows.append(
            [
                backend,
                result.num_requests,
                f"{result.direct_s:.2f}",
                f"{result.batch_s:.2f}",
                outcomes,
                f"{result.max_score_delta:.1e}",
                "yes" if result.decisions_match else "NO",
            ]
        )
    print(
        format_table(
            ["backend", "requests", "direct (s)", "batch (s)",
             "outcomes", "max |Δscore|", "decisions match"],
            rows,
            title="Batch serving — worker-pool backends vs the direct "
            "sequential loop",
        )
    )


def _print_stream_exit(scale: float) -> None:
    result = experiments.run_stream_exit(scale=scale)
    rows = []
    for threshold in result.thresholds:
        rows.append(
            [
                "inf (disabled)" if np.isinf(threshold) else threshold,
                f"{result.accuracy[threshold]:.2f}",
                f"{result.agreement[threshold]:.2f}",
                f"{result.early_exit_fraction[threshold]:.2f}",
                f"{result.mean_beeps[threshold]:.2f}",
                f"{1e3 * result.median_latency_s[threshold]:.1f}",
            ]
        )
    rows.append(
        [
            "batch path",
            f"{result.batch_accuracy:.2f}",
            "1.00",
            "0.00",
            f"{result.beeps_per_attempt:.2f}",
            f"{1e3 * result.batch_median_latency_s:.1f}",
        ]
    )
    print(
        format_table(
            ["score threshold", "accuracy", "vs batch", "early-exit frac",
             "mean beeps", "median (ms)"],
            rows,
            title=f"Streaming early exit — threshold sweep "
            f"({result.num_attempts} attempts x "
            f"{result.beeps_per_attempt} beeps, min_beeps="
            f"{result.min_beeps})",
        )
    )


def _print_identify_scale(scale: float) -> None:
    result = experiments.run_identify_scale(scale=scale)
    rows = []
    base = result.median_latency_s[result.populations[0]]
    for population in result.populations:
        median = result.median_latency_s[population]
        rows.append(
            [
                population,
                result.num_shards[population],
                f"{1e3 * median:.3f}",
                f"{median / base:.2f}x",
                f"{result.prefilter_recall[population]:.2f}",
                f"{result.accuracy[population]:.2f}",
            ]
        )
    print(
        format_table(
            ["users", "shards", "identify median (ms)", "vs smallest",
             "stage-1 recall", "accuracy"],
            rows,
            title=f"Sub-linear identification — sharded store, "
            f"k={result.candidate_k}",
        )
    )


def _print_attack_detect(scale: float) -> None:
    result = experiments.run_attack_detect(scale=scale)
    rows = []
    for name in result.classes:
        tta = result.time_to_first_alert_s[name]
        attempts = result.attempts_to_first_alert[name]
        rows.append(
            [
                name,
                result.expected_rule[name],
                "yes" if result.detected[name] else "NO",
                "-" if tta is None else f"{tta:.2f}",
                "-" if attempts is None else attempts,
                ", ".join(result.rules_fired[name]) or "-",
            ]
        )
    print(
        format_table(
            ["attack class", "expected rule", "detected",
             "time to alert (s)", "attempts", "rules fired"],
            rows,
            title="Security sentinel — scripted attack detection",
        )
    )
    print(
        f"benign traffic: {result.num_benign} attempts, "
        f"{result.benign_false_alarms} false alarms; "
        f"{result.total_alerts} alerts total"
    )


EXPERIMENTS = {
    "table1": _print_table1,
    "fig5": _print_fig5,
    "fig8": _print_fig8,
    "fig11": _print_fig11,
    "fig12": _print_fig12,
    "fig13": _print_fig13,
    "fig14": _print_fig14,
    "drift": _print_drift,
    "serve-batch": _print_serve_batch,
    "stream-exit": _print_stream_exit,
    "identify-scale": _print_identify_scale,
    "attack-detect": _print_attack_detect,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EchoImage (ICDCS 2023) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one or more experiments")
    runner.add_argument(
        "names",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    runner.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale relative to the paper's chirp counts "
        "(default: REPRO_SCALE env or 0.25)",
    )
    runner.add_argument(
        "--seed", type=int, default=20230048, help="experiment seed base"
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="collect pipeline traces and print the aggregated "
        "stage-latency table (count/mean/p50/p95 per stage) after the "
        "experiments finish",
    )
    runner.add_argument(
        "--profile-json",
        metavar="FILE",
        default=None,
        help="also write the stage-latency report as JSON to FILE "
        "(implies --profile)",
    )
    runner.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (accept/reject counters, echo "
        "SNR, score histograms, ...) in the Prometheus text format after "
        "the experiments finish",
    )
    runner.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="also write the metrics registry as versioned JSON to FILE "
        "(implies --metrics)",
    )
    runner.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the live observability endpoint (/metrics, /healthz, "
        "/readyz, /traces, /drift, /audit, /slo, /alerts) on this port "
        "while the experiments run (0 = ephemeral)",
    )
    runner.add_argument(
        "--audit-jsonl",
        metavar="FILE",
        default=None,
        help="append every served or identified decision to a "
        "hash-chained audit ledger at FILE (serve-batch, attack-detect "
        "and identify-scale write entries; the figure experiments and "
        "stream-exit call the pipeline directly and write none; verify "
        "it later with scripts/audit_query.py --verify-chain)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(args.names)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    scale = args.scale
    if scale is None:
        from repro.eval.protocols import repro_scale

        scale = repro_scale()

    profiler = None
    if args.profile or args.profile_json:
        from repro.obs import Profiler

        if args.profile_json:
            # Fail before the experiments run, not after minutes of work.
            try:
                with open(args.profile_json, "a", encoding="utf-8"):
                    pass
            except OSError as error:
                print(f"error: cannot write {args.profile_json}: {error}")
                return 2
        profiler = Profiler().install()

    registry = None
    if args.metrics or args.metrics_json:
        from repro.obs import MetricsRegistry, set_registry

        if args.metrics_json:
            try:
                with open(args.metrics_json, "a", encoding="utf-8"):
                    pass
            except OSError as error:
                print(f"error: cannot write {args.metrics_json}: {error}")
                return 2
        # A fresh registry isolates this run's totals from anything the
        # importing process collected before.
        registry = MetricsRegistry()
        set_registry(registry)

    ledger = None
    if args.audit_jsonl is not None:
        from repro.obs import AuditLedger, set_audit_ledger

        try:
            ledger = AuditLedger(args.audit_jsonl)
        except Exception as error:  # noqa: BLE001 - corrupt/unwritable ledger
            print(f"error: cannot open ledger {args.audit_jsonl}: {error}")
            return 2
        set_audit_ledger(ledger)
        print(f"[audit ledger appending to {args.audit_jsonl}]")

    obs_server = None
    if args.obs_port is not None:
        from repro.obs import ObservabilityServer

        # Scrapes follow the default registry, so a later --metrics swap
        # is picked up automatically.
        obs_server = ObservabilityServer(port=args.obs_port).start()
        print(
            f"[observability endpoint on {obs_server.url()} — "
            f"/metrics /healthz /readyz /traces /drift /audit /slo "
            f"/alerts]"
        )
    try:
        for name in names:
            # perf_counter, not time.time(): wall clock is not monotonic
            # (NTP slew can make durations jump or go negative).
            started = time.perf_counter()
            print(f"\n=== {name} (scale {scale}) ===")
            EXPERIMENTS[name](scale)
            print(
                f"[{name} finished in "
                f"{time.perf_counter() - started:.0f}s]"
            )
    finally:
        if profiler is not None:
            profiler.uninstall()
        if obs_server is not None:
            obs_server.stop()
        if ledger is not None:
            from repro.obs import set_audit_ledger

            set_audit_ledger(None)
    if profiler is not None:
        print()
        print(
            profiler.report(
                title=f"Stage latency over {len(profiler.traces)} "
                "pipeline invocations"
            )
        )
        if args.profile_json:
            with open(args.profile_json, "w", encoding="utf-8") as handle:
                handle.write(profiler.json(indent=2))
            print(f"[stage report written to {args.profile_json}]")
    if registry is not None:
        print()
        print("# Metrics (Prometheus text exposition)")
        print(registry.render_prometheus(), end="")
        if args.metrics_json:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json(indent=2))
            print(f"[metrics written to {args.metrics_json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
