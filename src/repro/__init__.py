"""EchoImage: user authentication on smart speakers using acoustic images.

Reproduction of Ren et al., "EchoImage: User Authentication on Smart
Speakers Using Acoustic Signals" (ICDCS 2023).  The package bundles:

* a physical acoustic-scene simulator (:mod:`repro.acoustics`) standing in
  for the ReSpeaker microphone-array hardware,
* synthetic human subjects (:mod:`repro.body`),
* array signal processing — steering, MVDR beamforming
  (:mod:`repro.array`) — and the signal substrate (:mod:`repro.signal`),
* a from-scratch ML stack — SMO SVMs, SVDD, a frozen NumPy CNN
  (:mod:`repro.ml`),
* the paper's pipeline — ranging, acoustic imaging, augmentation,
  authentication (:mod:`repro.core`),
* the evaluation harness regenerating every table and figure
  (:mod:`repro.eval`), and
* pipeline observability — span tracing, profiling, stage-latency
  reports (:mod:`repro.obs`).

Quickstart (doctest-able; run ``PYTHONPATH=src python -m doctest
src/repro/__init__.py``):

    >>> import numpy as np
    >>> from repro import EchoImagePipeline, EchoImageConfig, ImagingConfig
    >>> from repro.acoustics.noise import NoiseModel
    >>> from repro.acoustics.scene import AcousticScene
    >>> from repro.body.subject import SyntheticSubject
    >>> from repro.signal.chirp import LFMChirp
    >>> rng = np.random.default_rng(0)
    >>> scene = AcousticScene(noise=NoiseModel.silent())  # the "hardware"
    >>> chirp = LFMChirp()                                # the 2-3 kHz beep
    >>> alice = SyntheticSubject(subject_id=1)
    >>> pipeline = EchoImagePipeline(config=EchoImageConfig(
    ...     imaging=ImagingConfig(grid_resolution=16)))   # small & fast
    >>> enroll = scene.record_beeps(
    ...     chirp, alice.beep_clouds(0.7, 8, rng), rng)
    >>> _ = pipeline.enroll_user(enroll)
    >>> result = pipeline.authenticate(scene.record_beeps(
    ...     chirp, alice.beep_clouds(0.7, 3, rng), rng))
    >>> isinstance(result.accepted, bool)
    True
    >>> 0.3 < result.distance.user_distance_m < 1.0
    True
    >>> sorted(result.trace.span_names())  # the per-attempt breakdown
    ['auth.predict', 'authenticate', 'distance.envelope', \
'distance.estimate', 'features.extract', 'imaging.band', 'imaging.image', \
'stream.beep']
"""

from repro.body.population import build_population
from repro.config import (
    AuthenticationConfig,
    BeepConfig,
    DistanceEstimationConfig,
    EchoImageConfig,
    FeatureConfig,
    ImagingConfig,
    MonitoringConfig,
)
from repro.core.authenticator import (
    SPOOFER_LABEL,
    MultiUserAuthenticator,
    SingleUserAuthenticator,
)
from repro.core.distance import (
    DistanceEstimate,
    DistanceEstimationError,
    DistanceEstimator,
)
from repro.core.features import FeatureExtractor
from repro.core.imaging import AcousticImager, ImagingPlane
from repro.core.pipeline import AuthenticationResult, EchoImagePipeline
from repro.eval.dataset import CollectionSpec, DatasetBuilder

__version__ = "1.0.0"

__all__ = [
    "EchoImagePipeline",
    "AuthenticationResult",
    "EchoImageConfig",
    "BeepConfig",
    "DistanceEstimationConfig",
    "ImagingConfig",
    "FeatureConfig",
    "AuthenticationConfig",
    "MonitoringConfig",
    "DistanceEstimator",
    "DistanceEstimate",
    "DistanceEstimationError",
    "AcousticImager",
    "ImagingPlane",
    "FeatureExtractor",
    "SingleUserAuthenticator",
    "MultiUserAuthenticator",
    "SPOOFER_LABEL",
    "DatasetBuilder",
    "CollectionSpec",
    "build_population",
    "__version__",
]
