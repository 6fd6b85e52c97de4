"""One front end per attempt (Sections V-B and V-C).

Ranging and imaging both start from each beep's 2-3 kHz band-passed
analytic capture.  The mechanism tests spy on ``BandpassFilter.apply``
and count the beeps each attempt band-passes: one stacked call for the
whole attempt, which imaging then reuses at the default single sub-band.
The invariance tests pin what makes the sharing exact: a beep's analytic
row, and so its image, is bitwise the same whether the beep was
processed alone or in a stack with any other beeps.
"""

import numpy as np
import pytest

from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene, BeepRecording
from repro.array.geometry import respeaker_array
from repro.body.subject import SyntheticSubject
from repro.config import (
    AuthenticationConfig,
    EchoImageConfig,
    ExitPolicy,
    ImagingConfig,
)
from repro.core.distance import DistanceEstimator
from repro.core.imaging import AcousticImager, ImagingPlane
from repro.core.pipeline import EchoImagePipeline
from repro.signal.analytic import AnalyticCaptures, analytic_signal
from repro.signal.chirp import LFMChirp
from repro.signal.filters import BandpassFilter

NUM_SAMPLES = 2400
EMIT_INDEX = 240


def _config(subbands: int = 1) -> EchoImageConfig:
    return EchoImageConfig(
        imaging=ImagingConfig(grid_resolution=16, subbands=subbands),
        auth=AuthenticationConfig(svdd_margin=0.3),
    )


def _scene_recordings(num_beeps: int, seed: int) -> list[BeepRecording]:
    scene = AcousticScene(
        array=respeaker_array(),
        noise=NoiseModel(kind="quiet", level_db_spl=30.0),
    )
    rng = np.random.default_rng(seed)
    clouds = SyntheticSubject(subject_id=1).beep_clouds(0.7, num_beeps, rng)
    return scene.record_beeps(LFMChirp(), clouds, rng)


def _noise_recordings(lengths, seed: int) -> list[BeepRecording]:
    rng = np.random.default_rng(seed)
    return [
        BeepRecording(
            samples=rng.standard_normal((respeaker_array().num_mics, n)),
            sample_rate=48_000.0,
            emit_index=EMIT_INDEX,
        )
        for n in lengths
    ]


@pytest.fixture(scope="module")
def enrolled():
    """A single-user pipeline and a 4-beep attempt of the same user."""
    pipeline = EchoImagePipeline(config=_config())
    pipeline.enroll_user(_scene_recordings(8, seed=0))
    return pipeline, _scene_recordings(4, seed=1)


@pytest.fixture
def filtered_beeps(monkeypatch):
    """Beeps band-passed by each ``BandpassFilter.apply`` call, in order."""
    calls: list[int] = []
    original = BandpassFilter.apply

    def spy(self, samples):
        samples = np.asarray(samples)
        calls.append(1 if samples.ndim == 2 else samples.shape[0])
        return original(self, samples)

    monkeypatch.setattr(BandpassFilter, "apply", spy)
    return calls


@pytest.mark.parametrize("batched", [False, True], ids=["images", "batch"])
class TestOneFrontEndPerAttempt:
    """At ``subbands = 1`` every beep is band-passed once, by ranging."""

    def test_construct_images(
        self, enrolled, filtered_beeps, monkeypatch, batched
    ):
        pipeline, attempt = enrolled
        monkeypatch.setattr(pipeline, "batched_imaging", batched)
        pipeline.construct_images(attempt)
        assert filtered_beeps == [len(attempt)]

    def test_authenticate(self, enrolled, filtered_beeps, monkeypatch, batched):
        pipeline, attempt = enrolled
        monkeypatch.setattr(pipeline, "batched_imaging", batched)
        pipeline.authenticate(attempt)
        assert filtered_beeps == [len(attempt)]

    @pytest.mark.parametrize(
        "policy, beeps_used",
        [(ExitPolicy(), 4), (ExitPolicy(min_beeps=1, score_threshold=0.0), 1)],
        ids=["exit-disabled", "early-exit"],
    )
    def test_authenticate_streaming(
        self, enrolled, filtered_beeps, monkeypatch, batched, policy,
        beeps_used,
    ):
        pipeline, attempt = enrolled
        monkeypatch.setattr(pipeline, "batched_imaging", batched)
        result = pipeline.authenticate_streaming(attempt, policy)
        assert result.beeps_used == beeps_used
        assert filtered_beeps == [len(attempt)]


@pytest.mark.parametrize("batched", [False, True], ids=["images", "batch"])
def test_other_subbands_filter_for_themselves(filtered_beeps, batched):
    """At ``subbands = 2`` neither band is the ranging band: each is
    filtered by the imager, and the images equal the per-band path."""
    attempt = _scene_recordings(3, seed=2)
    pipeline = EchoImagePipeline(config=_config(subbands=2))
    pipeline.batched_imaging = batched
    images, plane = pipeline.construct_images(attempt)
    if batched:  # one stacked call per sub-band
        assert filtered_beeps == [3, 3, 3]
    else:  # every beep alone, each sub-band in turn
        assert filtered_beeps == [3] + [1] * 6
    imager = AcousticImager(pipeline.array, config=pipeline.config.imaging)
    for image, reference in zip(images, imager.images(attempt, plane)):
        assert np.array_equal(image, reference)


@pytest.mark.parametrize("num_beeps", [1, 2, 3, 8])
def test_image_independent_of_stack(num_beeps):
    """Beep k's analytic row and image are bitwise the same whether it
    comes from a shuffled stack of L beeps or is processed alone."""
    recordings = _noise_recordings([NUM_SAMPLES] * 8, seed=31)
    imager = AcousticImager(
        respeaker_array(), config=ImagingConfig(grid_resolution=12)
    )
    plane = ImagingPlane.from_config(0.9, imager.config)
    bandpass = BandpassFilter()
    order = np.random.default_rng(num_beeps).permutation(8)[:num_beeps]
    stack = [recordings[i] for i in order]
    captures = DistanceEstimator(respeaker_array()).captures(stack)
    for index, row in zip(order, captures.rows):
        alone = analytic_signal(bandpass.apply(recordings[index].samples))
        assert np.array_equal(row, alone)
    alone = {i: imager.image(recordings[i], plane) for i in order}
    for images in (
        imager.image_batch(stack, plane, captures),
        imager.images(stack, plane, captures),
    ):
        for index, image in zip(order, images):
            assert np.array_equal(image, alone[index])


def test_different_lengths_fall_back_per_beep(filtered_beeps):
    recordings = _noise_recordings(
        [NUM_SAMPLES, NUM_SAMPLES + 480, NUM_SAMPLES], seed=5
    )
    estimator = DistanceEstimator(respeaker_array())
    captures = estimator.captures(recordings)
    rows = captures.rows
    assert filtered_beeps == [1, 1, 1]
    for recording, row in zip(recordings, rows):
        assert np.array_equal(
            row, analytic_signal(BandpassFilter().apply(recording.samples))
        )

    # Ranging: the shared rows give the per-beep envelope average.
    envelopes = [estimator.correlation_envelope(rec) for rec in recordings]
    length = min(env.size for env in envelopes)
    reference = np.mean(
        np.abs(np.stack([env[:length] for env in envelopes])) ** 2, axis=0
    )
    assert np.array_equal(
        estimator.averaged_envelope(recordings, captures), reference
    )

    # Imaging: the batch takes the same rows and matches beep by beep.
    imager = AcousticImager(
        respeaker_array(), config=ImagingConfig(grid_resolution=12)
    )
    plane = ImagingPlane.from_config(1.0, imager.config)
    batched = imager.image_batch(recordings, plane, captures)
    for image, recording in zip(batched, recordings):
        assert np.array_equal(image, imager.image(recording, plane))


def test_captures_of_other_recordings_are_ignored(filtered_beeps):
    """Captures serve only the recordings they were made from."""
    recordings = _noise_recordings([NUM_SAMPLES] * 2, seed=8)
    others = _noise_recordings([NUM_SAMPLES] * 2, seed=9)
    imager = AcousticImager(
        respeaker_array(), config=ImagingConfig(grid_resolution=12)
    )
    plane = ImagingPlane.from_config(1.0, imager.config)
    foreign = AnalyticCaptures(others, imager._bandpasses[0])
    images = imager.image_batch(recordings, plane, foreign)
    assert filtered_beeps == [2]  # the imager's own stacked call
    for image, recording in zip(images, recordings):
        assert np.array_equal(image, imager.image(recording, plane))
