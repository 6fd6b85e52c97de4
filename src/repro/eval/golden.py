"""Golden-output regression harness for the imaging/serving stack.

The optimized imaging kernels (window-covariance segment energies,
batched sub-band filtering) and the parallel serving backends all
promise the *same numbers* as the paper-shaped sequential loop.  This
module pins that promise to disk: a small set of deterministic
synthetic cases is frozen into ``.npz`` fixtures (images, feature
embeddings, decision scores and labels), and the golden tests under
``tests/golden`` replay every execution path against them.

The case definitions live here — in the package, not the test tree — so
the fixture *writer* (``scripts/refresh_golden.py``) and the fixture
*readers* (the tests) can never drift apart on how a case is built.

Fixtures are stored as float32 (the computations run in float64): small
enough to commit, tight enough that any real numerical regression —
wrong window, wrong steering sign, dropped beep — lands far outside the
comparison tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene, BeepRecording
from repro.array.geometry import respeaker_array
from repro.body.subject import SyntheticSubject
from repro.config import (
    AuthenticationConfig,
    EchoImageConfig,
    ImagingConfig,
)
from repro.core.pipeline import EchoImagePipeline
from repro.signal.chirp import LFMChirp

#: Relative/absolute tolerances for comparing live float64 outputs to
#: the float32 fixtures.  float32 quantization contributes ~1e-7
#: relative error; anything past 1e-5 is a real numerical change.
GOLDEN_RTOL = 1e-5
GOLDEN_ATOL = 1e-6


@dataclass(frozen=True)
class GoldenCase:
    """One frozen regression scenario.

    Attributes:
        name: Fixture stem (``<name>.npz``).
        subject_id: Synthetic subject enrolled as the legitimate user.
        enroll_beeps: Enrollment beep count.
        attempt_beeps: Beeps in the frozen authentication attempt.
        resolution: Imaging grid resolution (kept small — fixtures are
            committed).
        subbands: Sub-band count of the imaging filter bank.
        seed: Base RNG seed; enrollment uses ``seed``, the attempt
            ``seed + 1``.
    """

    name: str
    subject_id: int = 1
    enroll_beeps: int = 12
    attempt_beeps: int = 4
    resolution: int = 24
    subbands: int = 1
    seed: int = 0

    def config(self) -> EchoImageConfig:
        """The pipeline configuration of the case."""
        return EchoImageConfig(
            imaging=ImagingConfig(
                grid_resolution=self.resolution, subbands=self.subbands
            ),
            auth=AuthenticationConfig(svdd_margin=0.3),
        )


#: The frozen regression scenarios.  Two sizes so a kernel bug that
#: happens to cancel at one resolution/sub-band count still trips.
GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase("single_user_quiet", seed=0),
    GoldenCase(
        "single_user_subbands",
        seed=7,
        enroll_beeps=10,
        attempt_beeps=3,
        resolution=16,
        subbands=3,
    ),
)


def default_fixture_dir() -> Path:
    """``tests/golden/fixtures`` relative to the repository root."""
    return (
        Path(__file__).resolve().parents[3] / "tests" / "golden" / "fixtures"
    )


def fixture_path(case: GoldenCase, fixture_dir: Path | None = None) -> Path:
    """Where a case's fixture lives."""
    return (fixture_dir or default_fixture_dir()) / f"{case.name}.npz"


def _record(
    scene: AcousticScene,
    chirp: LFMChirp,
    subject: SyntheticSubject,
    num_beeps: int,
    seed: int,
) -> list[BeepRecording]:
    rng = np.random.default_rng(seed)
    clouds = subject.beep_clouds(0.7, num_beeps, rng)
    return scene.record_beeps(chirp, clouds, rng)


def build_case(
    case: GoldenCase,
) -> tuple[EchoImagePipeline, list[BeepRecording]]:
    """Deterministically rebuild a case's enrolled pipeline + attempt.

    Returns:
        ``(pipeline, attempt_recordings)`` — the pipeline is enrolled on
        the case's synthetic subject, and the recordings are the frozen
        attempt the fixtures were computed from.
    """
    scene = AcousticScene(
        array=respeaker_array(),
        noise=NoiseModel(kind="quiet", level_db_spl=30.0),
    )
    chirp = LFMChirp()
    subject = SyntheticSubject(subject_id=case.subject_id)
    pipeline = EchoImagePipeline(config=case.config())
    pipeline.enroll_user(
        _record(scene, chirp, subject, case.enroll_beeps, case.seed)
    )
    attempt = _record(
        scene, chirp, subject, case.attempt_beeps, case.seed + 1
    )
    return pipeline, attempt


def compute_reference(case: GoldenCase) -> dict[str, np.ndarray]:
    """The case's reference outputs.

    Returns:
        Mapping with float64 arrays: ``images`` of shape
        ``(attempt_beeps, resolution, resolution)``, ``features`` of
        shape ``(attempt_beeps, d)``, per-beep decision ``scores``, and
        the scalar ``accepted`` flag (stored as ``uint8``).
    """
    pipeline, attempt = build_case(case)
    distance = pipeline.estimate_distance(attempt)
    plane = pipeline.imaging_plane(distance.user_distance_m)
    images = pipeline.imager.images(attempt, plane)
    features = pipeline.feature_extractor.extract(images)
    result = pipeline.authenticate(attempt)
    return {
        "images": np.stack(images),
        "features": np.asarray(features, dtype=float),
        "scores": np.asarray(result.scores, dtype=float),
        "accepted": np.asarray([result.accepted], dtype=np.uint8),
        "distance_m": np.asarray([distance.user_distance_m], dtype=float),
    }


def write_fixture(case: GoldenCase, fixture_dir: Path | None = None) -> Path:
    """Recompute a case's reference outputs and freeze them to disk."""
    path = fixture_path(case, fixture_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    reference = compute_reference(case)
    frozen = {
        key: (
            value
            if value.dtype == np.uint8
            else value.astype(np.float32)
        )
        for key, value in reference.items()
    }
    np.savez_compressed(path, **frozen)
    return path


def load_fixture(
    case: GoldenCase, fixture_dir: Path | None = None
) -> dict[str, np.ndarray]:
    """Load a case's frozen outputs.

    Raises:
        FileNotFoundError: With regeneration instructions, when the
            fixture is missing.
    """
    path = fixture_path(case, fixture_dir)
    if not path.exists():
        raise FileNotFoundError(
            f"golden fixture {path} is missing; regenerate with "
            f"`PYTHONPATH=src python scripts/refresh_golden.py`"
        )
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def diff_report(
    name: str,
    actual: np.ndarray,
    expected: np.ndarray,
    rtol: float = GOLDEN_RTOL,
    atol: float = GOLDEN_ATOL,
) -> str | None:
    """Human-readable mismatch description, or ``None`` on a match.

    The report carries what a debugging session needs first: the
    max-abs-error, the index of the first offending element and both
    values there.

    Example:
        >>> import numpy as np
        >>> diff_report("x", np.ones(3), np.ones(3)) is None
        True
        >>> report = diff_report(
        ...     "x", np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        >>> "max|err|=1" in report and "first offender at (1,)" in report
        True
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return (
            f"{name}: shape mismatch — actual {actual.shape} vs "
            f"expected {expected.shape}"
        )
    error = np.abs(actual - expected)
    bound = atol + rtol * np.abs(expected)
    offenders = error > bound
    if not offenders.any():
        return None
    worst = tuple(
        int(i) for i in np.unravel_index(int(np.argmax(error)), error.shape)
    )
    first = tuple(
        int(i) for i in np.unravel_index(
            int(np.argmax(offenders.ravel())), offenders.shape
        )
    )
    return (
        f"{name}: shape {actual.shape}: "
        f"max|err|={error[worst]:.6g} at {worst}; "
        f"{int(offenders.sum())} element(s) out of tolerance "
        f"(rtol={rtol:g}, atol={atol:g}); "
        f"first offender at {first}: "
        f"actual={actual[first]:.6g} expected={expected[first]:.6g}"
    )


def compare_to_fixture(
    actual: dict[str, np.ndarray],
    fixture: dict[str, np.ndarray],
    rtol: float = GOLDEN_RTOL,
    atol: float = GOLDEN_ATOL,
) -> list[str]:
    """All mismatch reports between live outputs and a frozen fixture."""
    reports = []
    for key in sorted(fixture):
        if key not in actual:
            reports.append(f"{key}: missing from live outputs")
            continue
        report = diff_report(key, actual[key], fixture[key], rtol, atol)
        if report is not None:
            reports.append(report)
    return reports
