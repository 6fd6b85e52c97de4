"""Golden-output regression tests: every execution path vs frozen truth.

The fixtures under ``fixtures/`` freeze images, embeddings and decisions
of the deterministic cases in :mod:`repro.eval.golden` (regenerate with
``scripts/refresh_golden.py``).  These tests replay the paper-shaped
per-beep loop, one imaging call over the whole attempt and every
serving backend against them:

* per-beep / whole-attempt imaging and thread-backend serving must agree
  with each other **bitwise** (every beep goes through the same energy
  kernel, and the model state is shared zero-copy);
* the process backend must agree within 1e-10 (results cross a pickle
  boundary but the arithmetic is identical);
* everything must agree with the float32 fixtures within
  ``GOLDEN_RTOL``/``GOLDEN_ATOL``.

A failure prints the max-abs-error and first offending pixel via
:func:`repro.eval.golden.diff_report` — read that before bisecting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.eval.golden import (
    GOLDEN_CASES,
    build_case,
    compare_to_fixture,
    diff_report,
    load_fixture,
)
from repro.serve import AuthenticationRequest, BatchAuthenticator, ModelBundle


@pytest.fixture(scope="module", params=GOLDEN_CASES, ids=lambda c: c.name)
def golden(request):
    """One case, built once per module: (case, pipeline, attempt, fixture)."""
    case = request.param
    pipeline, attempt = build_case(case)
    return case, pipeline, attempt, load_fixture(case)


def _live_outputs(pipeline, attempt):
    distance = pipeline.estimate_distance(attempt)
    plane = pipeline.imaging_plane(distance.user_distance_m)
    images = [pipeline.imager.image(rec, plane) for rec in attempt]
    features = pipeline.feature_extractor.extract(images)
    result = pipeline.authenticate(attempt)
    return {
        "images": np.stack(images),
        "features": np.asarray(features, dtype=float),
        "scores": np.asarray(result.scores, dtype=float),
        "accepted": np.asarray([result.accepted], dtype=np.uint8),
        "distance_m": np.asarray([distance.user_distance_m], dtype=float),
    }, plane, result


class TestSequentialPath:
    def test_matches_fixture(self, golden):
        case, pipeline, attempt, fixture = golden
        live, _, _ = _live_outputs(pipeline, attempt)
        reports = compare_to_fixture(live, fixture)
        assert not reports, "\n".join(reports)


class TestBatchedImaging:
    def test_bitwise_identical_to_sequential(self, golden):
        case, pipeline, attempt, fixture = golden
        distance = pipeline.estimate_distance(attempt)
        plane = pipeline.imaging_plane(distance.user_distance_m)
        sequential = [pipeline.imager.image(rec, plane) for rec in attempt]
        batched = pipeline.imager.images(attempt, plane)
        assert len(batched) == len(sequential)
        for index, (seq, bat) in enumerate(zip(sequential, batched)):
            assert np.array_equal(seq, bat), (
                f"beep {index}: "
                f"{diff_report('image', bat, seq, rtol=0.0, atol=0.0)}"
            )

    def test_matches_fixture(self, golden):
        case, pipeline, attempt, fixture = golden
        distance = pipeline.estimate_distance(attempt)
        plane = pipeline.imaging_plane(distance.user_distance_m)
        batched = np.stack(pipeline.imager.images(attempt, plane))
        report = diff_report("images", batched, fixture["images"])
        assert report is None, report


class TestServingBackends:
    def _serve_scores(self, pipeline, attempt, backend):
        bundle = ModelBundle.from_pipeline(pipeline)
        request = AuthenticationRequest("golden", tuple(attempt))
        config = ServingConfig(backend=backend, max_workers=2)
        with BatchAuthenticator(bundle, config) as server:
            (response,) = server.authenticate_batch([request])
        assert response.status == "ok", (response.status, response.error)
        return np.asarray(response.result.scores, dtype=float), response

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_zero_copy_backends_bitwise_identical(self, golden, backend):
        case, pipeline, attempt, fixture = golden
        reference = np.asarray(
            pipeline.authenticate(attempt).scores, dtype=float
        )
        scores, response = self._serve_scores(pipeline, attempt, backend)
        assert np.array_equal(scores, reference), (
            f"{backend}: "
            f"{diff_report('scores', scores, reference, rtol=0.0, atol=0.0)}"
        )
        report = diff_report("scores", scores, fixture["scores"])
        assert report is None, report
        assert bool(response.result.accepted) == bool(fixture["accepted"][0])

    def test_process_backend_within_1e10(self, golden):
        case, pipeline, attempt, fixture = golden
        if case is not GOLDEN_CASES[0]:
            pytest.skip("process pool exercised once; backends share code")
        reference = np.asarray(
            pipeline.authenticate(attempt).scores, dtype=float
        )
        scores, response = self._serve_scores(pipeline, attempt, "process")
        report = diff_report(
            "scores", scores, reference, rtol=0.0, atol=1e-10
        )
        assert report is None, report
        assert bool(response.result.accepted) == bool(fixture["accepted"][0])


class TestDiffReport:
    """The harness itself must fail readably (satellite: readable diffs)."""

    def test_match_returns_none(self):
        assert diff_report("x", np.ones((2, 2)), np.ones((2, 2))) is None

    def test_reports_max_error_and_first_offender(self):
        expected = np.zeros((4, 4))
        actual = expected.copy()
        actual[1, 2] = 5e-4
        actual[3, 0] = 1e-3
        report = diff_report("images", actual, expected)
        assert report is not None
        assert "max|err|=0.001" in report
        assert "(3, 0)" in report  # the worst pixel
        assert "first offender at (1, 2)" in report
        assert "2 element(s)" in report

    def test_reports_shape_mismatch(self):
        report = diff_report("images", np.ones((2, 3)), np.ones((3, 2)))
        assert report is not None and "shape mismatch" in report

    def test_compare_flags_missing_keys(self):
        reports = compare_to_fixture({}, {"images": np.ones(2)})
        assert reports == ["images: missing from live outputs"]

    def test_tolerances_admit_float32_storage(self):
        values = np.linspace(-3.0, 9.0, 1000)
        assert diff_report(
            "roundtrip", values, values.astype(np.float32)
        ) is None
