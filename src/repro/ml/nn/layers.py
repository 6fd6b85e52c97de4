"""Forward-only neural network layers in NumPy.

Only the forward pass is implemented: the feature extractor of Section V-D
is *frozen* ("keep the pre-trained parameters ... frozen and use the 5-th
pooling layer as the output"), so no gradients are ever needed.  Convolution
copies stride-tricks im2col patches into one contiguous array and multiplies
it by the flattened kernels with ``np.matmul``, which hands every image its
own BLAS GEMM; max pooling is a running ``np.maximum`` over strided views.
Neither mixes images, so each image's output is independent of the batch it
arrives in (streaming authentication relies on this).

Tensor layout: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

import abc
import itertools

import numpy as np


class Layer(abc.ABC):
    """A forward-only network layer."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map an input batch to an output batch."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _validate_nchw(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 4:
        raise ValueError(
            f"expected a 4-D (batch, channels, H, W) tensor, got {x.shape}"
        )
    return x


def im2col(x: np.ndarray, kernel: int, stride: int = 1) -> np.ndarray:
    """Extract sliding patches as columns.

    The stride-tricks view is laid out as ``(N, C, kh, kw, out_h, out_w)``
    from the start, so the final reshape is the one (contiguous) copy.

    Args:
        x: Input of shape ``(N, C, H, W)`` (already padded if needed).
        kernel: Square kernel size.
        stride: Stride in both spatial dimensions.

    Returns:
        Array of shape ``(N, C * kernel * kernel, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input "
            f"{h}x{w}"
        )
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return patches.reshape(n, c * kernel * kernel, out_h * out_w)


class Conv2D(Layer):
    """2-D convolution with 'same' zero padding.

    Args:
        weights: Kernel tensor of shape ``(out_c, in_c, k, k)``; ``k`` must
            be odd, since 'same' padding is symmetric.
        bias: Bias of shape ``(out_c,)``; zeros when omitted.
        stride: Spatial stride.
    """

    def __init__(
        self,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        stride: int = 1,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
            raise ValueError(
                f"weights must be (out_c, in_c, k, k), got {weights.shape}"
            )
        if weights.shape[2] % 2 == 0:
            raise ValueError(
                f"'same' padding needs an odd kernel, got "
                f"{weights.shape[2]}x{weights.shape[3]}"
            )
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.weights = weights
        self.out_channels, self.in_channels, self.kernel, _ = weights.shape
        if bias is None:
            bias = np.zeros(self.out_channels)
        bias = np.asarray(bias, dtype=float).ravel()
        if bias.size != self.out_channels:
            raise ValueError(
                f"bias size {bias.size} does not match {self.out_channels} "
                f"output channels"
            )
        self.bias = bias
        self.stride = stride
        self._flat_weights = weights.reshape(self.out_channels, -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _validate_nchw(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"input has {c} channels, layer expects {self.in_channels}"
            )
        pad = self.kernel // 2
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad : pad + h, pad : pad + w] = x
        cols = im2col(padded, self.kernel, self.stride)
        # matmul broadcasts the kernels over the batch: one GEMM per image.
        out = np.matmul(self._flat_weights, cols)
        out += self.bias[:, None]
        out_h = (h - 1) // self.stride + 1
        out_w = (w - 1) // self.stride + 1
        return out.reshape(n, self.out_channels, out_h, out_w)


class ReLU(Layer):
    """Elementwise rectifier."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=float), 0.0)


class MaxPool2D(Layer):
    """Non-overlapping max pooling.

    Args:
        size: Pooling window (and stride).
    """

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _validate_nchw(x)
        s = self.size
        h, w = x.shape[2:]
        if h < s or w < s:
            raise ValueError(
                f"input {h}x{w} smaller than the pooling window {s}"
            )
        # Rows and columns past the last whole window are dropped
        # (VGG-style pooling on odd sizes).
        rows, cols = h - h % s, w - w % s
        out = x[:, :, :rows:s, :cols:s].copy()
        for i, j in itertools.product(range(s), repeat=2):
            if i or j:
                np.maximum(out, x[:, :, i:rows:s, j:cols:s], out=out)
        return out


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            raise ValueError(f"expected a batched tensor, got {x.shape}")
        return x.reshape(x.shape[0], -1)


class Dense(Layer):
    """Fully connected layer.

    Args:
        weights: Matrix of shape ``(out_dim, in_dim)``.
        bias: Vector of shape ``(out_dim,)``; zeros when omitted.
    """

    def __init__(
        self, weights: np.ndarray, bias: np.ndarray | None = None
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got {weights.shape}")
        self.weights = weights
        if bias is None:
            bias = np.zeros(weights.shape[0])
        bias = np.asarray(bias, dtype=float).ravel()
        if bias.size != weights.shape[0]:
            raise ValueError(
                f"bias size {bias.size} does not match {weights.shape[0]} "
                f"outputs"
            )
        self.bias = bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"expected (batch, {self.weights.shape[1]}), got {x.shape}"
            )
        return x @ self.weights.T + self.bias
