"""Tests for the MiniVGGish feature extractor and image ops."""

import numpy as np
import pytest

from repro.ml.nn.image_ops import normalize_image, resize_bilinear
from repro.ml.nn.network import Sequential
from repro.ml.nn.layers import ReLU
from repro.ml.nn.vggish import MiniVGGish


class TestImageOps:
    def test_resize_identity(self):
        image = np.random.default_rng(0).standard_normal((16, 16))
        assert np.allclose(resize_bilinear(image, 16, 16), image)

    def test_resize_constant_preserved(self):
        image = np.full((10, 10), 3.5)
        out = resize_bilinear(image, 23, 7)
        assert np.allclose(out, 3.5)

    def test_resize_shape(self):
        out = resize_bilinear(np.zeros((48, 48)), 64, 32)
        assert out.shape == (64, 32)

    def test_resize_monotone_gradient(self):
        image = np.tile(np.arange(8.0), (8, 1))
        out = resize_bilinear(image, 8, 16)
        assert np.all(np.diff(out[0]) >= -1e-9)

    def test_resize_rejects_non_2d(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((2, 2, 2)), 4, 4)

    def test_normalize(self):
        image = np.random.default_rng(1).normal(5, 2, (12, 12))
        out = normalize_image(image)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_normalize_constant(self):
        assert np.allclose(normalize_image(np.full((4, 4), 7.0)), 0.0)


class TestSequential:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_non_layer_rejected(self):
        with pytest.raises(TypeError):
            Sequential([lambda x: x])

    def test_forward_until(self):
        net = Sequential([ReLU(), ReLU()])
        x = np.array([[-1.0, 2.0]])
        assert np.allclose(net.forward_until(x, 0), x)
        assert np.allclose(net.forward_until(x, 1), [[0.0, 2.0]])
        with pytest.raises(ValueError):
            net.forward_until(x, 3)


class TestMiniVGGish:
    def test_feature_dim(self):
        net = MiniVGGish(input_size=64, widths=(8, 16, 32, 64, 64))
        assert net.feature_dim == 2 * 2 * 64

    def test_deterministic_across_instances(self):
        image = np.random.default_rng(0).standard_normal((48, 48))
        a = MiniVGGish(seed=7).extract([image])
        b = MiniVGGish(seed=7).extract([image])
        assert np.allclose(a, b)

    def test_seed_changes_network(self):
        image = np.random.default_rng(0).standard_normal((48, 48))
        a = MiniVGGish(seed=1).extract([image])
        b = MiniVGGish(seed=2).extract([image])
        assert not np.allclose(a, b)

    def test_batch_shape(self):
        net = MiniVGGish()
        images = [np.random.default_rng(i).standard_normal((40, 40)) for i in range(3)]
        features = net.extract(images)
        assert features.shape == (3, net.feature_dim)

    def test_accepts_any_input_size(self):
        net = MiniVGGish()
        small = net.extract([np.random.default_rng(0).standard_normal((17, 17))])
        large = net.extract([np.random.default_rng(0).standard_normal((200, 200))])
        assert small.shape == large.shape

    def test_similar_images_have_similar_features(self):
        rng = np.random.default_rng(3)
        image = rng.standard_normal((48, 48))
        noisy = image + 0.01 * rng.standard_normal((48, 48))
        other = rng.standard_normal((48, 48))
        net = MiniVGGish()
        f = net.extract([image, noisy, other])
        near = np.linalg.norm(f[0] - f[1])
        far = np.linalg.norm(f[0] - f[2])
        assert near < 0.3 * far

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 16])
    def test_rows_independent_of_batch(self, batch_size):
        # Streaming (one image at a time) must equal the batch path bitwise.
        rng = np.random.default_rng(batch_size)
        images = [rng.standard_normal((24, 24)) for _ in range(batch_size)]
        order = rng.permutation(batch_size)
        net = MiniVGGish()
        batch = net.extract([images[i] for i in order])
        for row, i in enumerate(order):
            assert np.array_equal(batch[row], net.extract([images[i]])[0])

    def test_gain_invariance_via_normalisation(self):
        image = np.random.default_rng(4).standard_normal((48, 48))
        net = MiniVGGish()
        f1 = net.extract([image])
        f2 = net.extract([image * 5.0])
        assert np.allclose(f1, f2, atol=1e-8)

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            MiniVGGish(widths=(8, 16))

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            MiniVGGish(input_size=16)
