"""Tests for the NumPy CNN layers."""

import numpy as np
import pytest

from repro.ml.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, im2col


def naive_conv(x, weights, bias, stride):
    """Nested-loop 'same' correlation: the reference for ``Conv2D``."""
    n, c, h, w = x.shape
    out_c, _, k, _ = weights.shape
    pad = k // 2
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    padded[:, :, pad : pad + h, pad : pad + w] = x
    out = np.empty((n, out_c, (h - 1) // stride + 1, (w - 1) // stride + 1))
    for b, o, i, j in np.ndindex(*out.shape):
        acc = bias[o]
        for ci in range(c):
            for di in range(k):
                for dj in range(k):
                    acc += (
                        padded[b, ci, i * stride + di, j * stride + dj]
                        * weights[o, ci, di, dj]
                    )
        out[b, o, i, j] = acc
    return out


def reshape_max_pool(x, size):
    """Pooling by reshape + max: the reference for ``MaxPool2D``."""
    n, c, h, w = x.shape
    x = x[:, :, : h - h % size, : w - w % size]
    return x.reshape(n, c, h // size, size, w // size, size).max(axis=(3, 5))


class TestIm2col:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        cols = im2col(x, kernel=3)
        assert cols.shape == (2, 27, 36)

    def test_stride(self):
        x = np.zeros((1, 1, 8, 8))
        cols = im2col(x, kernel=2, stride=2)
        assert cols.shape == (1, 4, 16)

    def test_content(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, kernel=2)
        # First patch is the top-left 2x2 block.
        assert np.allclose(cols[0, :, 0], [0, 1, 4, 5])

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 3, 3)), kernel=5)


class TestConv2D:
    def test_identity_kernel(self):
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 1, 1] = 1.0
        conv = Conv2D(weights)
        x = np.random.default_rng(0).standard_normal((1, 1, 6, 6))
        assert np.allclose(conv(x), x)

    @pytest.mark.parametrize(
        "in_channels, size, stride",
        [
            pytest.param(c, hw, s, id=f"c{c}-{hw[0]}x{hw[1]}-s{s}")
            for c in (1, 3, 8)
            for hw in ((5, 5), (6, 8))
            for s in (1, 2)
        ],
    )
    def test_matches_naive_convolution(self, in_channels, size, stride):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((4, in_channels, 3, 3))
        bias = rng.standard_normal(4)
        x = rng.standard_normal((2, in_channels, *size))
        out = Conv2D(weights, bias, stride=stride)(x)
        expected = naive_conv(x, weights, bias, stride)
        assert out.shape == expected.shape
        # float64 GEMM vs scalar loop: only the summation order differs.
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_same_padding_shape(self):
        conv = Conv2D(np.zeros((4, 2, 3, 3)))
        out = conv(np.zeros((2, 2, 7, 9)))
        assert out.shape == (2, 4, 7, 9)

    def test_stride_two(self):
        conv = Conv2D(np.zeros((1, 1, 3, 3)), stride=2)
        out = conv(np.zeros((1, 1, 8, 8)))
        assert out.shape == (1, 1, 4, 4)

    def test_channel_mismatch(self):
        conv = Conv2D(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv(np.zeros((1, 2, 5, 5)))

    def test_bad_weight_shape(self):
        with pytest.raises(ValueError):
            Conv2D(np.zeros((2, 2, 3, 5)))

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_even_kernel_rejected(self, kernel):
        # Symmetric 'same' padding cannot keep the size with an even kernel.
        with pytest.raises(ValueError, match=f"{kernel}x{kernel}"):
            Conv2D(np.ones((1, 1, kernel, kernel)))

    def test_bias_size_validated(self):
        with pytest.raises(ValueError, match="bias"):
            Conv2D(np.zeros((2, 1, 3, 3)), bias=np.zeros(3))


class TestActivationsAndPooling:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.allclose(ReLU()(x), [[0.0, 0.0, 2.0]])

    def test_maxpool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2)(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_truncates_ragged(self):
        out = MaxPool2D(2)(np.zeros((1, 1, 5, 5)))
        assert out.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize(
        "size, hw", [(2, (4, 6)), (2, (5, 5)), (2, (7, 9)), (3, (6, 9)), (3, (7, 9))]
    )
    def test_maxpool_matches_reshape_reference(self, size, hw):
        x = np.random.default_rng(2).standard_normal((2, 3, *hw))
        out = MaxPool2D(size)(x)
        expected = reshape_max_pool(x, size)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_maxpool_too_small(self):
        with pytest.raises(ValueError):
            MaxPool2D(4)(np.zeros((1, 1, 2, 2)))

    def test_flatten(self):
        out = Flatten()(np.zeros((3, 2, 4, 4)))
        assert out.shape == (3, 32)


@pytest.mark.parametrize("kind", ["conv", "pool"])
def test_input_untouched_and_any_layout(kind):
    rng = np.random.default_rng(4)
    if kind == "conv":
        layer = Conv2D(rng.standard_normal((4, 3, 3, 3)), stride=2)
    else:
        layer = MaxPool2D(2)
    x = rng.standard_normal((2, 3, 9, 7)).transpose(0, 1, 3, 2)
    assert not x.flags.c_contiguous
    before = x.copy()
    out = layer(x)
    assert np.array_equal(x, before)
    assert out.tobytes() == layer(np.ascontiguousarray(x)).tobytes()


class TestDense:
    def test_affine(self):
        dense = Dense(np.array([[1.0, 2.0]]), np.array([0.5]))
        out = dense(np.array([[3.0, 4.0]]))
        assert out[0, 0] == pytest.approx(11.5)

    def test_dim_check(self):
        dense = Dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            dense(np.zeros((1, 4)))
