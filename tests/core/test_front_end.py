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
from repro.serve import ModelBundle
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


@pytest.fixture(scope="module")
def bundle(enrolled):
    """The enrolled pipeline's model bundle, as the serving layer holds it."""
    return ModelBundle.from_pipeline(enrolled[0])


@pytest.mark.parametrize("served", [False, True], ids=["images", "batch"])
class TestOneFrontEndPerAttempt:
    """At ``subbands = 1`` every beep is band-passed once, by ranging.

    ``images`` runs the library pipeline that enrolled the user;
    ``batch`` a worker pipeline of the batched serving layer, which
    :meth:`ModelBundle.build_pipeline` builds from that enrollment.
    """

    @staticmethod
    def _pipeline(enrolled, bundle, served: bool) -> EchoImagePipeline:
        return bundle.build_pipeline() if served else enrolled[0]

    def test_construct_images(self, enrolled, bundle, filtered_beeps, served):
        attempt = enrolled[1]
        self._pipeline(enrolled, bundle, served).construct_images(attempt)
        assert filtered_beeps == [len(attempt)]

    def test_authenticate(self, enrolled, bundle, filtered_beeps, served):
        attempt = enrolled[1]
        self._pipeline(enrolled, bundle, served).authenticate(attempt)
        assert filtered_beeps == [len(attempt)]

    @pytest.mark.parametrize(
        "policy, beeps_used",
        [(ExitPolicy(), 4), (ExitPolicy(min_beeps=1, score_threshold=0.0), 1)],
        ids=["exit-disabled", "early-exit"],
    )
    def test_authenticate_streaming(
        self, enrolled, bundle, filtered_beeps, served, policy, beeps_used
    ):
        attempt = enrolled[1]
        pipeline = self._pipeline(enrolled, bundle, served)
        result = pipeline.authenticate_streaming(attempt, policy)
        assert result.beeps_used == beeps_used
        assert filtered_beeps == [len(attempt)]


@pytest.mark.parametrize("batched", [False, True], ids=["images", "batch"])
def test_other_subbands_filter_for_themselves(
    bundle, filtered_beeps, monkeypatch, batched
):
    """At ``subbands = 2`` neither band is the ranging band: each is
    filtered by the imager, and the images equal imaging each beep alone.

    ``construct_images`` images the attempt as one stack, one call per
    sub-band (``batch``); the attempt loop images it beep by beep, one
    call per beep and sub-band (``images``).
    """
    attempt = _scene_recordings(3, seed=2)
    pipeline = bundle.build_pipeline(config=_config(subbands=2))
    if batched:
        images, plane = pipeline.construct_images(attempt)
        assert filtered_beeps == [3, 3, 3]
    else:
        images = []
        imaged = pipeline.imager.images

        def keep(*args, **kwargs):
            batch = imaged(*args, **kwargs)
            images.extend(batch)
            return batch

        monkeypatch.setattr(pipeline.imager, "images", keep)
        result = pipeline.authenticate(attempt)
        plane = pipeline.imaging_plane(result.distance.user_distance_m)
        assert filtered_beeps == [3] + [1] * 6
    assert len(images) == len(attempt)
    imager = AcousticImager(pipeline.array, config=pipeline.config.imaging)
    for image, recording in zip(images, attempt):
        assert np.array_equal(image, imager.image(recording, plane))


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
    for index, image in zip(order, imager.images(stack, plane, captures)):
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
    batched = imager.images(recordings, plane, captures)
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
    images = imager.images(recordings, plane, foreign)
    assert filtered_beeps == [2]  # the imager's own stacked call
    for image, recording in zip(images, recordings):
        assert np.array_equal(image, imager.image(recording, plane))
