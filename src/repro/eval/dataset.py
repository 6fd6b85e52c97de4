"""Simulated data collection for the evaluation protocol of Section VI-A.

The paper collects chirps from every subject in three environments
(laboratory, conference hall, outdoor) over three multi-day sessions.  One
*session* here is a visit: the subject walks up, stands in front of the
speaker (fresh ``SessionConditions``), and the device emits a block of
beeps while the subject sways and breathes.  Session 1 of the paper spans
days 0–2, so an enrollment may comprise several such blocks.

Every block is seeded from ``(seed_base, subject_id, session_key)``, making
the whole dataset a pure function of its configuration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.noise import NoiseModel
from repro.acoustics.reflectors import clutter_cloud
from repro.acoustics.room import ShoeboxRoom
from repro.acoustics.scene import AcousticScene, BeepRecording
from repro.array.geometry import MicrophoneArray, respeaker_array
from repro.body.subject import SessionConditions, SyntheticSubject
from repro.config import EchoImageConfig
from repro.core.distance import DistanceEstimationError, DistanceEstimator
from repro.core.imaging import AcousticImager, ImagingPlane
from repro.obs import start_trace, trace
from repro.signal.chirp import LFMChirp

#: Environment name -> room factory.
_ENVIRONMENTS = {
    "laboratory": ShoeboxRoom.laboratory,
    "conference_hall": ShoeboxRoom.conference_hall,
    "outdoor": ShoeboxRoom.outdoor,
}


@dataclass(frozen=True)
class CollectionSpec:
    """Where and how a block of beeps is collected.

    Attributes:
        distance_m: Nominal user–array distance.
        environment: "laboratory", "conference_hall" or "outdoor".
        noise_kind: "quiet", "music", "babble", "traffic" or "none".
        noise_level_db: Ambient level in dB SPL (paper: ~30 quiet, ~50
            playback).
        num_beeps: Beeps in the block.
        session_severity: Scale of the stance variation between blocks.

    Example:
        >>> spec = CollectionSpec(distance_m=1.0, noise_kind="music",
        ...                       noise_level_db=50.0)
        >>> spec.environment, spec.num_beeps
        ('laboratory', 20)
        >>> CollectionSpec(environment="spaceship")
        Traceback (most recent call last):
            ...
        ValueError: unknown environment 'spaceship'; choose from \
['conference_hall', 'laboratory', 'outdoor']
    """

    distance_m: float = 0.7
    environment: str = "laboratory"
    noise_kind: str = "quiet"
    noise_level_db: float = 30.0
    num_beeps: int = 20
    session_severity: float = 1.0

    def __post_init__(self) -> None:
        if self.environment not in _ENVIRONMENTS:
            raise ValueError(
                f"unknown environment {self.environment!r}; choose from "
                f"{sorted(_ENVIRONMENTS)}"
            )
        if self.distance_m <= 0:
            raise ValueError(f"distance must be positive, got {self.distance_m}")
        if self.num_beeps < 1:
            raise ValueError(f"num_beeps must be >= 1, got {self.num_beeps}")


@dataclass(frozen=True)
class SessionImages:
    """The acoustic images of one collection block.

    Attributes:
        subject_id: Who was standing in front of the array.
        images: One image per beep.
        estimated_distance_m: The pipeline's distance estimate used to
            place the imaging plane.
        plane: The imaging plane the images were constructed on.
        spec: The collection conditions.
    """

    subject_id: int
    images: list[np.ndarray]
    estimated_distance_m: float
    plane: ImagingPlane
    spec: CollectionSpec


@dataclass
class DatasetBuilder:
    """Deterministic simulated data collection.

    Attributes:
        config: Pipeline configuration (beep, distance, imaging stages).
        array: Microphone geometry.
        seed_base: Root seed of all randomness.

    Example::

        from repro import CollectionSpec, DatasetBuilder, build_population

        builder = DatasetBuilder()
        subject = build_population(num_registered=2).registered[0]
        session = builder.collect_session(subject, CollectionSpec(
            distance_m=0.7, num_beeps=10), session_key=0)
        print(session.images[0].shape)    # one acoustic image per beep

    The same ``(builder, subject, spec, session index)`` always produces
    the same session — collection is replayable across processes.  Each
    session records a ``collect_session`` span into a :mod:`repro.obs`
    trace.
    """

    config: EchoImageConfig = field(default_factory=EchoImageConfig)
    array: MicrophoneArray = field(default_factory=respeaker_array)
    seed_base: int = 20230048
    _scenes: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._chirp = LFMChirp.from_config(self.config.beep)
        self._estimator = DistanceEstimator(
            array=self.array,
            beep=self.config.beep,
            config=self.config.distance,
        )
        self._imager = AcousticImager(
            array=self.array,
            beep=self.config.beep,
            config=self.config.imaging,
        )

    def scene(
        self,
        environment: str = "laboratory",
        noise_kind: str = "quiet",
        noise_level_db: float = 30.0,
    ) -> AcousticScene:
        """The (cached) acoustic scene for an environment + noise setting."""
        key = (environment, noise_kind, float(noise_level_db))
        if key not in self._scenes:
            room = _ENVIRONMENTS[environment]()
            # A stable digest, not ``hash``: str hashes are salted per
            # process, and the clutter must not depend on the process.
            clutter_rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self.seed_base, zlib.crc32(environment.encode()) % (2**31)]
                )
            )
            num_clutter = {"laboratory": 12, "conference_hall": 16, "outdoor": 5}[
                environment
            ]
            self._scenes[key] = AcousticScene(
                array=self.array,
                room=room,
                clutter=clutter_cloud(clutter_rng, num_reflectors=num_clutter),
                noise=NoiseModel(kind=noise_kind, level_db_spl=noise_level_db),
            )
        return self._scenes[key]

    def _session_rng(
        self, subject_id: int, session_key: int
    ) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed_base, subject_id, session_key])
        )

    def record_session(
        self,
        subject: SyntheticSubject,
        spec: CollectionSpec,
        session_key: int,
    ) -> list[BeepRecording]:
        """Raw multichannel captures of one collection block.

        Args:
            subject: The subject standing in front of the array.
            spec: Collection conditions.
            session_key: Distinguishes visits; blocks with different keys
                get fresh stance conditions and noise realisations.

        Returns:
            ``spec.num_beeps`` recordings.
        """
        rng = self._session_rng(subject.subject_id, session_key)
        session = SessionConditions.sample(rng, severity=spec.session_severity)
        clouds = subject.beep_clouds(
            spec.distance_m, spec.num_beeps, rng, session=session
        )
        scene = self.scene(
            spec.environment, spec.noise_kind, spec.noise_level_db
        )
        return scene.record_beeps(self._chirp, clouds, rng)

    def collect_session(
        self,
        subject: SyntheticSubject,
        spec: CollectionSpec,
        session_key: int,
    ) -> SessionImages:
        """Record one block and construct its acoustic images.

        The imaging plane is placed at the *estimated* distance, exactly as
        the deployed pipeline would; when ranging fails (e.g. extreme
        noise), the nominal distance is used so the collection never stalls.

        Args:
            subject: The subject.
            spec: Collection conditions.
            session_key: Visit key (see :meth:`record_session`).

        Returns:
            The block's :class:`SessionImages`.
        """
        recordings = self.record_session(subject, spec, session_key)
        with start_trace(), trace(
            "collect_session",
            subject=subject.subject_id,
            num_beeps=spec.num_beeps,
            environment=spec.environment,
        ):
            captures = self._estimator.captures(recordings)
            try:
                estimate = self._estimator.estimate(recordings, captures)
                distance = estimate.user_distance_m
            except DistanceEstimationError:
                distance = spec.distance_m
            distance = float(np.clip(distance, 0.2, 4.0))
            plane = ImagingPlane.from_config(distance, self.config.imaging)
            images = self._imager.images(recordings, plane, captures)
        return SessionImages(
            subject_id=subject.subject_id,
            images=images,
            estimated_distance_m=distance,
            plane=plane,
            spec=spec,
        )

    def collect_blocks(
        self,
        subject: SyntheticSubject,
        spec: CollectionSpec,
        session_keys: list[int],
    ) -> list[SessionImages]:
        """Collect several visits with the same conditions."""
        return [
            self.collect_session(subject, spec, key) for key in session_keys
        ]
