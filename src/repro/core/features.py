"""Feature extraction from acoustic images (Section V-D).

The paper freezes a pre-trained VGG-style network and taps its fifth
pooling layer.  :class:`FeatureExtractor` wraps the NumPy
:class:`~repro.ml.nn.vggish.MiniVGGish` stand-in (deterministic frozen
random-feature weights — see DESIGN.md for the substitution rationale) and
also offers a raw-pixel mode used by the feature ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.config import FeatureConfig
from repro.ml.nn.image_ops import normalize_image, resize_bilinear
from repro.ml.nn.vggish import MiniVGGish
from repro.obs import ensure_trace, trace


class FeatureExtractor:
    """Frozen-CNN (or raw-pixel) feature extraction for acoustic images.

    Args:
        config: Network geometry and seed.
        mode: "cnn" for the frozen MiniVGGish features (the paper's
            design), "raw" for flattened resized pixels (ablation
            baseline).

    Example:
        >>> import numpy as np
        >>> extractor = FeatureExtractor(mode="raw")    # cheap ablation mode
        >>> extractor.extract([np.ones((48, 48))]).shape
        (1, 4096)
        >>> FeatureExtractor().feature_dim              # frozen-CNN features
        256

    ``extract`` records a ``features.extract`` span (``num_images``,
    ``feature_dim``, ``mode``, ``bytes``, ``mean_embedding_norm``) into
    the ambient :mod:`repro.obs` trace.
    """

    def __init__(
        self, config: FeatureConfig | None = None, mode: str = "cnn"
    ) -> None:
        if mode not in ("cnn", "raw"):
            raise ValueError(f"mode must be 'cnn' or 'raw', got {mode!r}")
        self.config = config or FeatureConfig()
        self.mode = mode
        if mode == "cnn":
            self._network = MiniVGGish(
                input_size=self.config.input_size,
                widths=self.config.widths,
                seed=self.config.seed,
            )
            self.feature_dim = self._network.feature_dim
        else:
            self._network = None
            self.feature_dim = self.config.input_size**2

    def extract(self, images: list[np.ndarray]) -> np.ndarray:
        """Feature matrix for a batch of acoustic images.

        Args:
            images: 2-D acoustic images (any sizes).

        Returns:
            Array of shape ``(len(images), feature_dim)``.
        """
        if not images:
            raise ValueError("need at least one image")
        with ensure_trace(), trace(
            "features.extract",
            num_images=len(images),
            feature_dim=self.feature_dim,
            mode=self.mode,
            bytes=int(sum(np.asarray(im).nbytes for im in images)),
        ) as span:
            if self._network is not None:
                features = self._network.extract(images)
            else:
                size = self.config.input_size
                rows = [
                    normalize_image(
                        resize_bilinear(
                            np.asarray(im, dtype=float), size, size
                        )
                    ).ravel()
                    for im in images
                ]
                features = np.stack(rows)
            span.set(
                "mean_embedding_norm",
                float(np.mean(np.linalg.norm(features, axis=1))),
            )
            return features
