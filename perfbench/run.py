"""Run one serving-benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coarse_batch --seed 1 --seconds 25 --trace 0

A run synthesizes the seeded traffic, sets the service up (three times
with ``--trace 0``, reporting the median), then measures two phases
through ``RequestBroker`` -> ``BatchAuthenticator``:

* open loop: Poisson arrivals at the workload's fixed rate over a
  ``--seconds`` window; latency runs from each request's scheduled send
  time to its reply;
* drain: a burst no larger than the broker's capacity, submitted at
  once; throughput is replies / (last reply - first submit).

With ``--trace 1`` the two phases run once more with the outside-in
tracer on (:mod:`perfbench.tracing`) and the per-layer metrics are
reported.  Every run ends with the output check.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
``metrics`` listed in ``BENCHMARK.json`` (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``); everything else goes
to the lines above it and to ``.perfbench/``.  The exit code is 1 when
the output check fails and 2 when the program cannot be run.
"""

from __future__ import annotations

import os

# Hold the BLAS pool at one thread in every run, before numpy loads:
# the serving pool supplies the parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Open-loop slices, each followed by one drain burst; ``throughput_rps``
#: is the median burst.
ROUNDS = 3

#: Units of the eight end-to-end metrics, in report order.
E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "req/s",
    "false_accept_rate": "ratio",
    "false_reject_rate": "ratio",
    "failed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="window of the open-loop arrival schedule")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user time
    return delta[7] / total if total > 0 else 0.0


def blas_threads() -> int | None:
    """The loaded OpenBLAS pool size, when OpenBLAS can be queried."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        paths = {
            line.split()[-1] for line in maps if "openblas" in line.lower()
        }
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


@dataclass
class Measured:
    """The requests of one measurement and its per-round figures."""

    open_sent: list
    drain_sent: list
    drain_rps: list
    open_p50_ms: list


def end_to_end(measured: Measured, household, setups) -> dict:
    """The eight end-to-end metrics as ``name -> (value, samples)``."""
    from perfbench import stats

    open_sent, drain_sent = measured.open_sent, measured.drain_sent
    sent = open_sent + drain_sent
    # A failed or refused request misses every latency limit.
    latencies = [
        s.latency_s * 1e3 if s.response.ok else math.inf for s in open_sent
    ]
    pool = household.pool
    spoofs = [s for s in sent if not pool[s.attempt].enrolled]
    users = [s for s in sent if pool[s.attempt].enrolled]
    false_accepts = sum(
        1 for s in spoofs if s.response.ok and s.response.result.accepted
    )
    false_rejects = sum(
        1 for s in users
        if not (s.response.ok
                and str(s.response.result.label) == pool[s.attempt].label)
    )
    failed = sum(1 for s in sent if not s.response.ok)
    return {
        "latency_p50_ms": (stats.median(latencies), len(latencies)),
        "latency_p95_ms": (stats.percentile(latencies, 95.0), len(latencies)),
        "throughput_rps": (stats.median(measured.drain_rps), len(drain_sent)),
        "false_accept_rate": (false_accepts / len(spoofs), len(spoofs)),
        "false_reject_rate": (false_rejects / len(users), len(users)),
        "failed_share": (failed / len(sent), len(sent)),
        "setup_s": (stats.median(setups), len(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }


def measure(
    workload, household, service, seed, seconds, prefix=""
) -> Measured:
    """Open-loop traffic interleaved with drain bursts, in ROUNDS rounds.

    The open-loop schedule is cut into ``ROUNDS`` consecutive slices;
    after each slice has been answered, one drain burst runs.  Spreading
    the bursts over the run lets the median burst throughput shrug off
    a short stall of the machine.
    """
    from perfbench import serving, stats, traffic
    from perfbench.workloads import DRAIN_SIZE

    flags = [a.enrolled for a in household.pool]
    count = max(ROUNDS, round(workload.rate_rps * seconds))
    offsets = traffic.arrival_offsets(seed, workload.rate_rps, count)
    open_sent = serving.make_requests(
        f"{prefix}open",
        traffic.request_mix(seed, "open", count, flags,
                            workload.tenant_weights),
        household,
    )
    drain_sent = serving.make_requests(
        f"{prefix}drain",
        traffic.request_mix(seed, "drain", ROUNDS * DRAIN_SIZE, flags,
                            workload.tenant_weights),
        household,
    )
    window = count / workload.rate_rps
    rates, slice_p50 = [], []
    for k in range(ROUNDS):
        lo, hi = k * window / ROUNDS, (k + 1) * window / ROUNDS
        part = [open_sent[i] for i, t in enumerate(offsets) if lo <= t < hi]
        serving.open_loop(
            service, household, part,
            [t - lo for t in offsets if lo <= t < hi],
        )
        if part:
            slice_p50.append(stats.median([1e3 * s.latency_s for s in part]))
        burst = drain_sent[k * DRAIN_SIZE:(k + 1) * DRAIN_SIZE]
        rates.append(serving.drain(service, household, burst))
    return Measured(open_sent, drain_sent, rates, slice_p50)


def run(args, declared) -> int:
    from perfbench import serving, stats, traffic, tracing
    from perfbench.workloads import (
        DRAIN_SIZE,
        ENROLL_BEEPS,
        POOL_SIZE,
        WORKLOADS,
    )
    from repro.obs.envinfo import environment_fingerprint

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    cpu_before = _cpu_times()
    household = traffic.synthesize_household(
        args.seed, ENROLL_BEEPS, workload.attempt_beeps, POOL_SIZE
    )
    observers = serving.Observers.install(
        workload.observers, OUT_DIR / f"work-{args.workload}"
    )
    tracer = tracing.Tracer() if args.trace else None
    repeats = 1 if tracer else SETUP_REPEATS
    setups = []
    for repeat in range(repeats):
        service = serving.set_up(
            workload, household, tracer.pipeline_factory() if tracer else None
        )
        setups.append(service.setup_s)
        if repeat < repeats - 1:
            service.close()
    if tracer:
        tracer.instrument_authenticator(service.authenticator)
        tracer.instrument_observers(observers)
    before = observers.served_by_outcome()

    measured = measure(workload, household, service, args.seed, args.seconds)
    open_sent = measured.open_sent
    traced_open, traced_drain = [], []
    if tracer:
        tracer.start()
        try:
            traced = measure(
                workload, household, service, args.seed, args.seconds,
                "traced-",
            )
        finally:
            tracer.stop()
        traced_open, traced_drain = traced.open_sent, traced.drain_sent
    everything = (
        open_sent + measured.drain_sent + traced_open + traced_drain
    )

    after = observers.served_by_outcome()
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    problems = serving.check_outputs(
        workload, service, household, everything, delta
    )
    service.close()
    observers.remove()
    cpu_after = _cpu_times()

    e2e = end_to_end(measured, household, setups)
    tail = stats.tail_percentile([s.latency_s * 1e3 for s in open_sent])
    lateness = [s.submitted - s.scheduled for s in open_sent]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rate_rps": workload.rate_rps,
        "drain_size": DRAIN_SIZE,
        "sent": len(everything),
        "succeeded": sum(1 for s in everything if s.response.ok),
        "failed": sum(1 for s in everything if not s.response.ok),
        "end_to_end": {
            name: {"value": value, "unit": E2E_UNITS[name], "samples": n}
            for name, (value, n) in e2e.items()
        },
        "rounds": {"drain_rps": measured.drain_rps,
                   "open_p50_ms": measured.open_p50_ms},
        "tail_percentile": tail and dict(
            zip(("pct", "value_ms", "samples"), tail)
        ),
        "validity": {
            "lateness_p95_ms": 1e3 * stats.percentile(lateness, 95.0),
            "lateness_max_ms": 1e3 * max(lateness),
            "cpu_steal_share": steal_share(cpu_before, cpu_after),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "environment": environment_fingerprint(),
        },
    }
    if tracer:
        layer = tracing.layer_metrics(
            tracer, traced_open, traced_open + traced_drain,
            workload.config().features.input_size,
        )
        traced_p50 = stats.median([s.latency_s * 1e3 for s in traced_open])
        layer["trace.overhead"] = traced_p50 / e2e["latency_p50_ms"][0] - 1
        response_p50 = 1e3 * stats.median(
            [s.response.latency_s for s in traced_open if s.response.ok]
        )
        ratio = layer["executor.worker_p50_ms"] / response_p50
        report["per_layer"] = layer
        report["self_time"] = tracing.self_time_table(
            tracer, len(traced_open) + len(traced_drain)
        )
        report["worker_cross_check"] = {
            "traced_worker_p50_ms": layer["executor.worker_p50_ms"],
            "response_latency_p50_ms": response_p50,
            "ratio": ratio,
        }
        if abs(ratio - 1.0) > 0.05:
            problems.append(
                f"traced executor.worker_p50_ms disagrees with the median "
                f"response latency_s (ratio {ratio:.3f})"
            )
        tracer.write(OUT_DIR / f"spans-{args.workload}.json")
    report["problems"] = problems

    print_report(report)
    with open(OUT_DIR / f"report-{args.workload}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    values = (
        report["per_layer"] if tracer
        else {k: v["value"] for k, v in report["end_to_end"].items()}
    )
    wanted = declared["per_layer" if tracer else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": report["sent"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if not problems else 1


def print_report(report) -> None:
    from perfbench import tracing

    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"rate {report['rate_rps']} req/s  drain {report['drain_size']}")
    print(f"requests sent {report['sent']}  succeeded {report['succeeded']}  "
          f"failed {report['failed']}")
    for name, entry in report["end_to_end"].items():
        print(f"  {name:<32} {entry['value']:>12.4f} {entry['unit']:<6} "
              f"n={entry['samples']}")
    if report["tail_percentile"]:
        tail = report["tail_percentile"]
        print(f"  highest percentile with >=10 samples beyond: "
              f"p{tail['pct']:g} = {tail['value_ms']:.4f} ms "
              f"n={tail['samples']}")
    print("  rounds " + json.dumps(report["rounds"]))
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<32} {value:>12.4f} {tracing.unit(name)}")
    if "self_time" in report:
        print(f"  {'self time by layer':<32} {'calls':>8} {'total ms':>11} "
              f"{'self ms':>11} {'self ms/req':>11}")
        for layer, (calls, total, own, per_request) in report[
            "self_time"
        ].items():
            print(f"  {layer:<32} {calls:>8} {total:>11.1f} {own:>11.1f} "
                  f"{per_request:>11.3f}")
        print("  worker cross-check " + json.dumps(
            report["worker_cross_check"]))
    print("  validity " + json.dumps(report["validity"], default=str))
    for problem in report["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}")


def declared_metrics() -> dict:
    """``end_to_end`` / ``per_layer`` name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Benchmark the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args, declared_metrics())


if __name__ == "__main__":
    sys.exit(main())
