"""End-to-end tracing: the pipeline facade emits a complete trace."""

import numpy as np
import pytest

from repro import EchoImagePipeline
from repro.config import (
    AuthenticationConfig,
    EchoImageConfig,
    ImagingConfig,
)
from repro.obs import STAGES, Profiler

#: The four Figure-3 stages every authentication attempt must cover.
PIPELINE_STAGES = (
    "distance.estimate",
    "imaging.image",
    "features.extract",
    "auth.predict",
)


@pytest.fixture
def pipeline():
    return EchoImagePipeline(
        config=EchoImageConfig(
            imaging=ImagingConfig(grid_resolution=24),
            auth=AuthenticationConfig(svdd_margin=0.3),
        )
    )


def record(scene, chirp, subject, num_beeps, seed):
    rng = np.random.default_rng(seed)
    clouds = subject.beep_clouds(0.7, num_beeps, rng)
    return scene.record_beeps(chirp, clouds, rng)


class TestAuthenticateTrace:
    def test_trace_covers_all_four_stages(
        self, pipeline, quiet_scene, chirp, subject
    ):
        pipeline.enroll_user(record(quiet_scene, chirp, subject, 12, 0))
        # Enrollment may have built the plane's steering tables (ranging
        # is quantised to the sample grid, so the attempt's plane can
        # equal the enrollment plane); reset them so the first beep is
        # cold.
        pipeline.imager._kernel_key = None
        num_beeps = 4
        result = pipeline.authenticate(
            record(quiet_scene, chirp, subject, num_beeps, 1)
        )

        assert result.trace is not None
        names = result.trace.span_names()
        for stage in PIPELINE_STAGES:
            assert stage in names, f"missing span {stage!r}"
            for span in result.trace.find(stage):
                assert span.duration_s > 0.0
        # Every span name the pipeline emits is documented in STAGES.
        assert names <= set(STAGES)

        # The root span wraps the whole attempt.
        (root,) = result.trace.spans
        assert root.name == "authenticate"
        assert root.attributes["num_beeps"] == num_beeps
        assert root.attributes["accepted"] == result.accepted
        assert root.duration_s >= sum(
            s.duration_s for s in root.children
        ) * 0.99

        # Per-beep stages ran once per beep.
        assert len(result.trace.find("imaging.image")) == num_beeps
        assert len(result.trace.find("distance.envelope")) == num_beeps

        # The steering tables are cold on the first beep only.
        cached_flags = [
            band.attributes["table_cached"]
            for band in result.trace.find("imaging.band")
        ]
        assert cached_flags[0] is False
        assert all(cached_flags[1:])

    def test_trace_survives_json_round_trip(
        self, pipeline, quiet_scene, chirp, subject
    ):
        pipeline.enroll_user(record(quiet_scene, chirp, subject, 12, 2))
        result = pipeline.authenticate(
            record(quiet_scene, chirp, subject, 3, 3)
        )
        rebuilt = type(result.trace).from_json(result.trace.to_json())
        assert rebuilt.span_names() == result.trace.span_names()

    def test_enrollment_is_traced_via_sink(
        self, pipeline, quiet_scene, chirp, subject
    ):
        with Profiler() as profiler:
            pipeline.enroll_user(record(quiet_scene, chirp, subject, 12, 4))
        assert len(profiler.traces) == 1
        names = profiler.traces[0].span_names()
        assert "enroll" in names
        assert "features.extract" in names

    def test_standalone_stage_call_reaches_sinks(
        self, pipeline, quiet_scene, chirp, subject
    ):
        recordings = record(quiet_scene, chirp, subject, 3, 5)
        with Profiler() as profiler:
            pipeline.distance_estimator.estimate(recordings)
        (collected,) = profiler.traces
        assert "distance.estimate" in collected.span_names()
