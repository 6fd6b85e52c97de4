"""Environment fingerprinting and its stamping into JSON artifacts."""

from __future__ import annotations

import json
import platform
import subprocess

import pytest

from repro.obs import FlightRecorder, MetricsRegistry
from repro.obs.envinfo import _git_sha, environment_fingerprint
from repro.obs.report import render_json


EXPECTED_KEYS = {
    "git_sha", "python", "numpy", "platform", "machine", "hostname",
    "cpu_count", "repro_scale",
}


@pytest.fixture
def uncached_git_sha():
    """The per-process git sha cache, cleared before and after."""
    _git_sha.cache_clear()
    yield
    _git_sha.cache_clear()


def git(cwd, *args) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@invalid",
         "-c", "commit.gpgsign=false", *args],
        cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout.strip()


class TestFingerprint:
    def test_carries_exactly_the_documented_axes(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) == EXPECTED_KEYS

    def test_values_are_json_serialisable(self):
        assert json.loads(json.dumps(environment_fingerprint())) == (
            environment_fingerprint()
        )

    def test_interpreter_version_is_live(self):
        assert environment_fingerprint()["python"] == (
            platform.python_version()
        )

    def test_git_sha_resolves_inside_the_repo(
        self, tmp_path, monkeypatch, uncached_git_sha
    ):
        # A repository of its own, so the result does not depend on
        # whether the suite runs from a checkout or an exported copy.
        (tmp_path / "file.txt").write_text("content\n")
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", "file.txt")
        git(tmp_path, "commit", "-q", "-m", "initial")
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.chdir(tmp_path)
        assert environment_fingerprint()["git_sha"] == git(
            tmp_path, "rev-parse", "HEAD"
        )

    def test_git_sha_falls_back_to_github_sha_outside_a_checkout(
        self, tmp_path, monkeypatch, uncached_git_sha
    ):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.setenv("GITHUB_SHA", "a" * 40)
        monkeypatch.chdir(tmp_path)
        assert environment_fingerprint()["git_sha"] == "a" * 40

    def test_git_sha_is_none_outside_a_checkout(
        self, tmp_path, monkeypatch, uncached_git_sha
    ):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.chdir(tmp_path)
        assert environment_fingerprint()["git_sha"] is None

    def test_repro_scale_reflects_the_live_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.125")
        assert environment_fingerprint()["repro_scale"] == "0.125"
        monkeypatch.delenv("REPRO_SCALE")
        assert environment_fingerprint()["repro_scale"] is None


class TestArtifactStamping:
    """Every JSON dump the obs stack writes carries the fingerprint."""

    def test_metrics_snapshot_is_stamped(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        document = registry.to_dict()
        assert set(document["environment"]) == EXPECTED_KEYS
        # to_json round-trips the same document.
        assert json.loads(registry.to_json())["environment"] == (
            document["environment"]
        )

    def test_stage_report_json_is_stamped(self):
        document = json.loads(render_json([]))
        assert set(document["environment"]) == EXPECTED_KEYS

    def test_flight_recorder_black_box_is_stamped(self):
        recorder = FlightRecorder()
        recorder.record_event("startup", detail="test")
        document = recorder.to_dict()
        assert set(document["environment"]) == EXPECTED_KEYS
