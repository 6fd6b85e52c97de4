"""Read-only snapshot of an enrolled pipeline's model state.

Workers in the serving pool must never recompute enrollment state: the
fitted SVDD/SVM (with their scaler snapshots) and the registration-time
score baseline are captured once from an enrolled
:class:`~repro.core.pipeline.EchoImagePipeline` into a
:class:`ModelBundle`, and every worker rebuilds a lightweight pipeline
around that shared state.  The bundle is picklable (unlike the pipeline,
whose beamformer factory is a closure), which is what lets the process
backend ship it to worker interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.geometry import MicrophoneArray
from repro.config import EchoImageConfig
from repro.core.authenticator import (
    MultiUserAuthenticator,
    SingleUserAuthenticator,
)
from repro.core.pipeline import EchoImagePipeline
from repro.obs.drift import DriftBaseline


@dataclass(frozen=True)
class ModelBundle:
    """Everything a serving worker needs to authenticate requests.

    Attributes:
        config: The enrolled pipeline's stage configuration.
        array: Microphone geometry.
        speed_of_sound: Speed of sound the pipeline was built with.
        feature_mode: Feature-extractor mode ("cnn" or "raw").
        single_auth: Fitted single-user authenticator (or ``None``).
        multi_auth: Fitted multi-user authenticator (or ``None``).
        score_baseline: Frozen registration-time ``auth.score``
            distribution for the drift monitors.

    A bundle pickled by an older version may carry two more attributes,
    ``steering_plane`` and ``steering_by_band`` (a steering warm start
    the imager no longer uses).  It still loads and serves: unpickling
    keeps them, so :meth:`content_hash` is unchanged, and nothing reads
    them.
    """

    config: EchoImageConfig
    array: MicrophoneArray
    speed_of_sound: float
    feature_mode: str
    single_auth: SingleUserAuthenticator | None = None
    multi_auth: MultiUserAuthenticator | None = None
    score_baseline: DriftBaseline | None = None

    def __post_init__(self) -> None:
        if (self.single_auth is None) == (self.multi_auth is None):
            raise ValueError(
                "bundle needs exactly one of single_auth or multi_auth"
            )

    @classmethod
    def from_pipeline(cls, pipeline: EchoImagePipeline) -> "ModelBundle":
        """Snapshot an enrolled pipeline.

        Raises:
            RuntimeError: When the pipeline has no enrolled users yet.
        """
        single = pipeline._single_auth
        multi = pipeline._multi_auth
        if single is None and multi is None:
            raise RuntimeError(
                "cannot bundle an un-enrolled pipeline; call enroll_user "
                "or enroll_users first"
            )
        return cls(
            config=pipeline.config,
            array=pipeline.array,
            speed_of_sound=pipeline.imager.speed_of_sound,
            feature_mode=pipeline.feature_extractor.mode,
            single_auth=single,
            multi_auth=multi,
            score_baseline=pipeline.drift.monitor("auth.score").baseline,
        )

    def save(self, path) -> "ModelBundle":
        """Persist this snapshot to disk (atomic, kind-tagged pickle).

        A restarted service re-arms with :meth:`load` instead of
        re-running enrollment; the sharded enrollment store of
        :mod:`repro.io.store` uses the same envelope substrate for its
        per-shard state.

        Args:
            path: Target file (conventionally ``*.bundle.pkl``).

        Returns:
            ``self`` (for chaining).
        """
        from repro.io.storage import save_model_bundle

        save_model_bundle(path, self)
        return self

    @classmethod
    def load(cls, path) -> "ModelBundle":
        """Load a snapshot written by :meth:`save`.

        Raises:
            repro.io.storage.StorageError: Missing or corrupted file,
                or a pickle that is not a bundle snapshot.
        """
        from repro.io.storage import load_model_bundle

        bundle = load_model_bundle(path)
        if not isinstance(bundle, cls):
            from repro.io.storage import StorageError

            raise StorageError(path, "wrong-kind",
                               f"payload is {type(bundle).__name__}")
        return bundle

    def content_hash(self) -> str:
        """Short content hash identifying this bundle's model state.

        The capture/replay layer (:mod:`repro.obs.capture`) stamps this
        into every capture and stashes bundles content-addressed, so a
        replay can prove it re-executed against the exact model that
        served the request.  The hash is computed once and cached on the
        instance; the cache rides along through pickling, so a bundle
        hashed before :meth:`save` reports the same hash after
        :meth:`load`.
        """
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            from repro.obs.capture import bundle_content_hash

            cached = bundle_content_hash(self)
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def build_pipeline(
        self,
        config: EchoImageConfig | None = None,
        # Ignored; perfbench still passes it (ROADMAP item 6 drops it).
        batched_imaging: bool = True,
    ) -> EchoImagePipeline:
        """A worker pipeline wired to this bundle's shared model state.

        Args:
            config: Optional stage-config override (used by the
                degradation ladder for coarser-grid variants); defaults
                to the enrolled configuration.

        Returns:
            A ready-to-serve pipeline.  The authenticators (and their
            scaler snapshots) are shared, not copied; they are read-only
            at decision time.
        """
        pipeline = EchoImagePipeline(
            config=config or self.config,
            array=self.array,
            speed_of_sound=self.speed_of_sound,
            feature_mode=self.feature_mode,
        )
        pipeline.adopt_enrollment(
            single_auth=self.single_auth,
            multi_auth=self.multi_auth,
            score_baseline=self.score_baseline,
        )
        return pipeline
