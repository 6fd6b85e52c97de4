"""Continuous benchmarking: statistical perf/quality tracking per commit.

The subsystem closes the longitudinal gap in the observability stack
(PRs 1-4 watch a *running* system; this watches the *repo over time*):

* :mod:`repro.bench.timer` — :func:`measure`, the warmup + adaptive
  repeat + robust-statistics timer every perf case runs under;
* :mod:`repro.bench.registry` — :class:`BenchCase` and the
  :class:`BenchRegistry` the case catalogue registers into;
* :mod:`repro.bench.cases` — the catalogue itself: perf cases over the
  hot kernels (matched filter, MVDR steering/covariance, imaging one
  beep and a stack, embedding extraction) and end-to-end paths
  (``Pipeline.authenticate``, ``BatchAuthenticator`` on every backend),
  plus quality cases (EER, identification accuracy, spoofer detection)
  at fixed seeds;
* :mod:`repro.bench.runner` — executes a selection, emitting
  ``bench.case`` spans and ``echoimage_bench_*`` metrics;
* :mod:`repro.bench.artifact` — versioned ``BENCH_<seq>.json``
  documents stamped with an environment fingerprint;
* :mod:`repro.bench.compare` — the noise-aware regression gate
  (``scripts/bench_compare.py``, the CI ``perf-gate`` job);
* :mod:`repro.bench.trajectory` — the accumulated artifact stream as a
  markdown table for EXPERIMENTS.md.

Entry points: ``scripts/bench_run.py`` writes artifacts,
``scripts/bench_compare.py`` gates and renders trajectories.
"""

from repro.bench.artifact import (
    ARTIFACT_RE,
    BENCH_SCHEMA_VERSION,
    ArtifactError,
    artifact_seq,
    build_artifact,
    list_artifacts,
    load_artifact,
    next_artifact_path,
    save_artifact,
    validate_artifact,
)
from repro.bench.compare import (
    DEFAULT_QUALITY_TOLERANCE,
    DEFAULT_TIMING_RATIO,
    CaseComparison,
    ComparisonReport,
    compare_artifacts,
)
from repro.bench.registry import (
    DEFAULT_REGISTRY,
    BenchCase,
    BenchRegistry,
)
from repro.bench.runner import SUITE_TIMER_DEFAULTS, run_cases
from repro.bench.timer import TimingResult, measure, robust_cv
from repro.bench.trajectory import (
    load_trajectory,
    render_directory,
    render_markdown,
)

__all__ = [
    "ARTIFACT_RE",
    "BENCH_SCHEMA_VERSION",
    "ArtifactError",
    "artifact_seq",
    "build_artifact",
    "list_artifacts",
    "load_artifact",
    "next_artifact_path",
    "save_artifact",
    "validate_artifact",
    "DEFAULT_QUALITY_TOLERANCE",
    "DEFAULT_TIMING_RATIO",
    "CaseComparison",
    "ComparisonReport",
    "compare_artifacts",
    "DEFAULT_REGISTRY",
    "BenchCase",
    "BenchRegistry",
    "SUITE_TIMER_DEFAULTS",
    "run_cases",
    "TimingResult",
    "measure",
    "robust_cv",
    "load_trajectory",
    "render_directory",
    "render_markdown",
]
