"""Tests for the simulated data-collection harness."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.body.population import build_population
from repro.config import EchoImageConfig, ImagingConfig
from repro.eval.dataset import CollectionSpec, DatasetBuilder


@pytest.fixture(scope="module")
def builder():
    return DatasetBuilder(
        config=EchoImageConfig(imaging=ImagingConfig(grid_resolution=16))
    )


@pytest.fixture(scope="module")
def one_subject():
    return build_population(num_registered=1, num_spoofers=0).registered[0]


class TestCollectionSpec:
    def test_defaults(self):
        spec = CollectionSpec()
        assert spec.environment == "laboratory"
        assert spec.noise_kind == "quiet"

    def test_unknown_environment(self):
        with pytest.raises(ValueError, match="environment"):
            CollectionSpec(environment="space")

    def test_invalid_beeps(self):
        with pytest.raises(ValueError):
            CollectionSpec(num_beeps=0)


class TestScenes:
    def test_scene_cached(self, builder):
        a = builder.scene("laboratory", "quiet", 30.0)
        b = builder.scene("laboratory", "quiet", 30.0)
        assert a is b

    def test_environments_differ(self, builder):
        lab = builder.scene("laboratory")
        outdoor = builder.scene("outdoor")
        assert lab.room.width_m != outdoor.room.width_m
        assert len(outdoor.room.surfaces) == 1

    def test_clutter_does_not_depend_on_the_process_hash_seed(self):
        # str hashes are salted per process (PYTHONHASHSEED), so a
        # clutter layout seeded from one would differ between runs.
        script = (
            "from repro.eval.dataset import DatasetBuilder\n"
            "clutter = DatasetBuilder().scene('laboratory').clutter\n"
            "print(clutter.positions.tobytes().hex())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"

        def clutter_under(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(src), env.get("PYTHONPATH")])
            )
            return subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        assert clutter_under("1") == clutter_under("2")


class TestCollection:
    def test_record_session_shapes(self, builder, one_subject):
        spec = CollectionSpec(num_beeps=3)
        recordings = builder.record_session(one_subject, spec, session_key=1)
        assert len(recordings) == 3
        assert recordings[0].num_mics == 6

    def test_deterministic(self, builder, one_subject):
        spec = CollectionSpec(num_beeps=2)
        a = builder.record_session(one_subject, spec, session_key=1)
        b = builder.record_session(one_subject, spec, session_key=1)
        assert np.allclose(a[0].samples, b[0].samples)

    def test_sessions_differ(self, builder, one_subject):
        spec = CollectionSpec(num_beeps=2)
        a = builder.record_session(one_subject, spec, session_key=1)
        b = builder.record_session(one_subject, spec, session_key=2)
        assert not np.allclose(a[0].samples, b[0].samples)

    def test_collect_session_images(self, builder, one_subject):
        spec = CollectionSpec(num_beeps=4)
        block = builder.collect_session(one_subject, spec, session_key=3)
        assert len(block.images) == 4
        assert block.images[0].shape == (16, 16)
        assert 0.2 <= block.estimated_distance_m <= 4.0
        assert block.subject_id == one_subject.subject_id

    def test_collect_blocks(self, builder, one_subject):
        spec = CollectionSpec(num_beeps=2)
        blocks = builder.collect_blocks(one_subject, spec, [1, 2, 3])
        assert len(blocks) == 3
