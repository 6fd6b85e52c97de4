"""MiniVGGish: the frozen VGG-style feature extractor of Section V-D.

The paper transfers a pre-trained VGG-ish network (13 convolutional layers
in five stages, each followed by max pooling) and taps the fifth pooling
layer as a 25 088-dimensional feature vector.  With no pre-trained weights
available offline, we instantiate the same *architecture family* at reduced
width with **deterministic, seeded, variance-scaled Gaussian weights** and
keep it frozen — the "random features" construction, a standard stand-in
for transfer learning when the downstream classifier (here an SVM) is
trained on the extracted features.

The stage layout mirrors VGG-16's (2, 2, 3, 3, 3) convolutions per stage;
with the default 64x64 input and widths (8, 16, 32, 64, 64) the output of
the fifth pooling stage is ``2 x 2 x 64 = 256`` features.
"""

from __future__ import annotations

import numpy as np

from repro.ml.nn.image_ops import normalize_image, resize_bilinear
from repro.ml.nn.layers import Conv2D, Flatten, MaxPool2D, ReLU
from repro.ml.nn.network import Sequential

#: Convolutions per stage, as in VGG-16.
_STAGE_DEPTHS = (2, 2, 3, 3, 3)


class MiniVGGish:
    """Frozen VGG-style convolutional feature extractor.

    Args:
        input_size: Input images are resized to this square size.
        widths: Output channels of the five stages.
        seed: Seed of the deterministic weight generation ("pre-trained"
            stand-in; the same seed always yields the same network).
        kernel: Convolution kernel size.

    Attributes:
        network: The underlying :class:`Sequential` (conv stages + flatten).
        feature_dim: Length of the extracted feature vector.
    """

    def __init__(
        self,
        input_size: int = 64,
        widths: tuple[int, ...] = (8, 16, 32, 64, 64),
        seed: int = 1811,
        kernel: int = 3,
    ) -> None:
        if len(widths) != len(_STAGE_DEPTHS):
            raise ValueError(
                f"widths must have {len(_STAGE_DEPTHS)} entries, got "
                f"{len(widths)}"
            )
        if input_size < 2 ** len(widths):
            raise ValueError(
                f"input_size {input_size} too small for {len(widths)} "
                f"pooling stages"
            )
        self.input_size = input_size
        self.widths = tuple(widths)
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([seed]))

        layers: list = []
        in_channels = 1
        for width, depth in zip(widths, _STAGE_DEPTHS):
            for _ in range(depth):
                fan_in = in_channels * kernel * kernel
                weights = rng.normal(
                    0.0,
                    np.sqrt(2.0 / fan_in),
                    size=(width, in_channels, kernel, kernel),
                )
                layers.append(Conv2D(weights))
                layers.append(ReLU())
                in_channels = width
            layers.append(MaxPool2D(2))
        layers.append(Flatten())
        self.network = Sequential(layers)

        side = input_size
        for _ in widths:
            side //= 2
        self.feature_dim = side * side * widths[-1]

    def preprocess(self, image: np.ndarray) -> np.ndarray:
        """Resize to the network input and normalise one image."""
        resized = resize_bilinear(image, self.input_size, self.input_size)
        return normalize_image(resized)

    def extract(self, images: list[np.ndarray] | np.ndarray) -> np.ndarray:
        """Extract frozen features from a batch of 2-D images.

        Args:
            images: A list of 2-D arrays (any sizes) or a single 3-D stack.

        Returns:
            Feature matrix of shape ``(len(images), feature_dim)``.
        """
        if isinstance(images, np.ndarray) and images.ndim == 2:
            images = [images]
        if len(images) == 0:
            raise ValueError("need at least one image")
        # One network call per image: each image already gets its own
        # GEMMs, so the rows are bitwise those of a batched call, and no
        # layer materialises the im2col of the whole batch.
        features = np.empty((len(images), self.feature_dim))
        for row, image in zip(features, images):
            batch = self.preprocess(np.asarray(image))[None, None, :, :]
            output = self.network(batch)
            if output.shape != (1, self.feature_dim):
                raise AssertionError(
                    f"feature dim {output.shape[1]} != expected "
                    f"{self.feature_dim}"
                )
            row[:] = output[0]
        return features
