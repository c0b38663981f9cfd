import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.layers import (
    bias_tile,
    conv2d_backward,
    conv2d_forward,
    conv2d_patches,
    fc_backward,
    fc_forward,
    hinge_loss,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    relu_forward,
    softmax_ce_loss,
    tanh_backward,
    tanh_forward,
)

from conftest import assert_bits_equal, assert_grads_close, central_difference, conv2d_per_row


def conv2d_reference(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadruple-loop convolution: an independent oracle for conv2d_forward."""
    bsz, hi, wi, _ = x.shape
    hk, wk, _, m = k.shape
    ho, wo = hi - hk + 1, wi - wk + 1
    out = np.zeros((bsz, ho, wo, m))
    for n in range(bsz):
        for i in range(ho):
            for j in range(wo):
                window = x[n, i:i + hk, j:j + wk, :]
                for f in range(m):
                    out[n, i, j, f] = np.sum(window * k[:, :, :, f]) + b[f]
    return out


def conv2d_input_grad_reference(grad_out: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Full correlation: the upstream gradient zero-padded by the kernel
    extent, correlated with the spatially flipped kernel.  An independent
    oracle for conv2d_backward's input gradient."""
    hk, wk = k.shape[:2]
    gpad = np.pad(grad_out, ((0, 0), (hk - 1, hk - 1), (wk - 1, wk - 1), (0, 0)))
    win = sliding_window_view(gpad, (hk, wk), axis=(1, 2))  # B, Hi, Wi, M, hk, wk
    return np.einsum("bijmyx,yxcm->bijc", win, k[::-1, ::-1])


class TestFullyConnected:
    def test_identity_layer(self, rng):
        x = rng.normal(size=(4, 3))
        out, _ = fc_forward(x, np.eye(3), np.zeros(3))
        assert_array_equal(out, x)

    def test_bias_only(self, rng):
        b = rng.normal(size=2)
        out, _ = fc_forward(rng.normal(size=(5, 3)), np.zeros((3, 2)), b)
        for row in out:
            assert_allclose(row, b, rtol=1e-15)

    def test_gradients(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        co = rng.normal(size=(4, 2))
        loss = lambda: float(np.sum(fc_forward(x, w, b)[0] * co))
        out, cache = fc_forward(x, w, b)
        gx, gw, gb = fc_backward(co, cache)
        assert_grads_close(gx, central_difference(loss, x))
        assert_grads_close(gw, central_difference(loss, w))
        assert_grads_close(gb, central_difference(loss, b))

    def test_bias_added_in_place_keeps_bits(self, rng):
        x, w, b = rng.normal(size=(33, 7)), rng.normal(size=(7, 5)), rng.normal(size=5)
        out, (cx, cw) = fc_forward(x, w, b)
        assert_array_equal(out, x @ w + b)
        assert cx is x and cw is w

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            fc_forward(rng.normal(size=(4, 3)), rng.normal(size=(2, 2)), np.zeros(2))


class TestConv2d:
    def test_1x1_unit_kernel_is_identity(self, rng):
        x = rng.normal(size=(2, 5, 5, 1))
        k = np.ones((1, 1, 1, 1))
        out, _ = conv2d_forward(x, k, np.zeros(1))
        assert_allclose(out, x, rtol=1e-15)

    def test_identity_channel_map(self, rng):
        x = rng.normal(size=(2, 4, 4, 3))
        k = np.eye(3).reshape(1, 1, 3, 3)
        out, _ = conv2d_forward(x, k, np.zeros(3))
        assert_allclose(out, x, rtol=1e-15)

    def test_output_extent(self, rng):
        x = rng.normal(size=(1, 28, 28, 1))
        k = rng.normal(size=(5, 5, 1, 3))
        out, _ = conv2d_forward(x, k, np.zeros(3))
        assert out.shape == (1, 24, 24, 3)

    def test_matches_reference(self, rng):
        x = rng.normal(size=(2, 6, 5, 3))
        k = rng.normal(size=(3, 2, 3, 4))
        b = rng.normal(size=4)
        out, _ = conv2d_forward(x, k, b)
        assert_allclose(out, conv2d_reference(x, k, b), rtol=1e-12, atol=1e-13)

    def test_gradients(self, rng):
        x = rng.normal(size=(1, 6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 2))
        b = rng.normal(size=2)
        co = rng.normal(size=(1, 4, 4, 2))
        loss = lambda: float(np.sum(conv2d_forward(x, k, b)[0] * co))
        _, cache = conv2d_forward(x, k, b)
        gx, gk, gb = conv2d_backward(co, cache)
        assert_grads_close(gx, central_difference(loss, x))
        assert_grads_close(gk, central_difference(loss, k))
        assert_grads_close(gb, central_difference(loss, b))

    def test_one_channel_matches_reference(self, rng):
        x = rng.normal(size=(3, 7, 6, 1))
        k = rng.normal(size=(3, 2, 1, 4))
        b = rng.normal(size=4)
        out, _ = conv2d_forward(x, k, b)
        assert_allclose(out, conv2d_reference(x, k, b), rtol=1e-12, atol=1e-13)

    def test_one_channel_gradients(self, rng):
        x = rng.normal(size=(2, 6, 5, 1))
        k = rng.normal(size=(3, 2, 1, 3))
        b = rng.normal(size=3)
        co = rng.normal(size=(2, 4, 4, 3))
        loss = lambda: float(np.sum(conv2d_forward(x, k, b)[0] * co))
        _, cache = conv2d_forward(x, k, b)
        gx, gk, gb = conv2d_backward(co, cache)
        assert_grads_close(gx, central_difference(loss, x))
        assert_grads_close(gk, central_difference(loss, k))
        assert_grads_close(gb, central_difference(loss, b))

    @pytest.mark.parametrize("channels, kernel_major", [(1, True), (3, False)])
    def test_patch_layout_by_channel_count(self, rng, channels, kernel_major):
        """One row per output pixel, one column per (dy, dx, channel) tap;
        each tap is contiguous for one channel, each row for more."""
        x = rng.normal(size=(2, 5, 4, channels))
        p = conv2d_patches(x, 3, 2)
        assert p.shape == (2 * 3 * 3, 3 * 2 * channels)
        assert p.T.flags.c_contiguous is kernel_major
        assert p.flags.c_contiguous is not kernel_major
        win = sliding_window_view(x, (3, 2), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
        assert_array_equal(p, win.reshape(p.shape))
        k = rng.normal(size=(3, 2, channels, 4))
        b = rng.normal(size=4)
        assert_array_equal(conv2d_forward(x, k, b, p)[0], conv2d_forward(x, k, b)[0])

    @pytest.mark.parametrize("x_shape, k_shape", [
        ((3, 7, 6, 2), (3, 2, 2, 4)),  # batch > 1, rectangular kernel
        ((2, 6, 6, 1), (3, 3, 1, 4)),  # one input channel
        ((2, 5, 6, 3), (2, 3, 3, 1)),  # one output channel
        ((2, 4, 6, 2), (4, 2, 2, 3)),  # kernel as tall as the input: Ho = 1
        ((2, 5, 3, 2), (2, 3, 2, 3)),  # kernel as wide as the input: Wo = 1
        ((2, 3, 3, 2), (3, 3, 2, 2)),  # Ho = Wo = 1
    ])
    def test_input_gradient_matches_full_correlation(self, rng, x_shape, k_shape):
        x = rng.normal(size=x_shape)
        k = rng.normal(size=k_shape)
        out, cache = conv2d_forward(x, k, rng.normal(size=k_shape[-1]))
        co = rng.normal(size=out.shape)
        gx, _, _ = conv2d_backward(co, cache)
        assert gx.shape == x.shape
        assert_allclose(gx, conv2d_input_grad_reference(co, k), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("batch", [1, 2, 7, 31, 32, 33, 60, 64, 65])
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("x_shape, k_shape", [
        ((28, 28, 1), (5, 5, 1, 8)),    # kernel-major patches
        ((12, 12, 8), (4, 4, 8, 16)),   # row-major patches
        ((16, 16, 1), (3, 3, 1, 4)),    # kernel-major patches
    ], ids=["5x5x1x8", "4x4x8x16", "3x3x1x4"])
    def test_bit_equal_to_one_product_per_output_row(self, rng, x_shape, k_shape, shared, batch):
        """One product per sample regroups the rows of the per-row products
        and keeps each output element's dot product, so every bit stays."""
        x = rng.normal(size=(batch, *x_shape))
        k = rng.normal(size=k_shape)
        b = rng.normal(size=k_shape[-1])
        p = conv2d_patches(x, *k_shape[:2]) if shared else None
        out, cache = conv2d_forward(x, k, b, p)
        want = conv2d_per_row(x, k, b, p)
        assert out.shape == want.shape
        assert_array_equal(out, want)
        assert out.tobytes() == want.tobytes()  # signs of zero too
        assert len(cache) == 2 and cache[0] is x and cache[1] is k  # never a patch matrix

    @pytest.mark.parametrize("channels", [1, 3])
    def test_slot_patch_rows_follow_the_pool_windows(self, rng, channels):
        """Slot-major patches hold the rows of the cropped 2·ho x 2·wo
        outputs, sample by sample in (r, q, i, j) order for the output pixel
        (2i + r, 2j + q), in the layout the channel count picks."""
        x = rng.normal(size=(2, 7, 8, channels))  # 5x7 outputs: ho, wo = 2, 3
        p = conv2d_patches(x, 3, 2, slots=True)
        assert p.shape == (2 * 4 * 2 * 3, 3 * 2 * channels)
        assert p.T.flags.c_contiguous is (channels == 1)
        full = conv2d_patches(x, 3, 2).reshape(2, 5, 7, -1)
        want = [full[n, 2 * i + r, 2 * j + q] for n in range(2) for r in (0, 1) for q in (0, 1)
                for i in range(2) for j in range(3)]
        assert_array_equal(p, want)

    @pytest.mark.parametrize("batch", [1, 7, 64, 65])
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("x_shape, k_shape", [
        ((28, 28, 1), (5, 5, 1, 8)),    # 24x24 outputs, kernel-major patches
        ((12, 12, 8), (4, 4, 8, 16)),   # 9x9, row-major: the pool drops a row and a column
        ((16, 16, 1), (3, 3, 1, 4)),    # 14x14, kernel-major
        ((9, 10, 2), (3, 3, 2, 3)),     # 7x8, row-major: odd by even
    ], ids=["5x5x1x8", "4x4x8x16", "3x3x1x4", "odd-by-even"])
    def test_slots_are_the_pooled_outputs_regrouped_to_the_bit(self, rng, x_shape, k_shape,
                                                                 shared, batch):
        """The slot-major forward computes each output the pool reads as the
        same dot product, so it is the spec-order output, cropped and
        regrouped, to the bit."""
        x = rng.normal(size=(batch, *x_shape))
        k = rng.normal(size=k_shape)
        b = rng.normal(size=k_shape[-1])
        p = conv2d_patches(x, *k_shape[:2], slots=True) if shared else None
        out, cache = conv2d_forward(x, k, b, p, slots=True)
        want = conv2d_per_row(x, k, b)
        _, ho, wo, m = want.shape
        ho, wo = ho // 2, wo // 2
        want = want[:, : 2 * ho, : 2 * wo].reshape(batch, ho, 2, wo, 2, m)
        assert_bits_equal(out, want.transpose(0, 2, 4, 1, 3, 5))
        assert len(cache) == 2 and cache[0] is x and cache[1] is k
        bare, _ = conv2d_forward(x, k, None, p, slots=True)  # the product alone
        assert_bits_equal(bare + bias_tile(b, bare.shape[1:]), out)

    def test_kernel_larger_than_input(self, rng):
        with pytest.raises(ValueError):
            conv2d_forward(rng.normal(size=(1, 3, 3, 1)),
                           rng.normal(size=(4, 4, 1, 1)), np.zeros(1))


class TestMaxPool:
    def test_constant_input_routes_to_first_slot(self):
        x = np.ones((1, 4, 4, 1))
        out, cache = maxpool2_forward(x)
        assert_array_equal(out, np.ones((1, 2, 2, 1)))
        g = maxpool2_backward(np.ones((1, 2, 2, 1)), cache)
        want = np.zeros((1, 4, 4, 1))
        want[0, 0::2, 0::2, 0] = 1.0  # top-left corner of every window
        assert_array_equal(g, want)

    def test_odd_extents_floored(self, rng):
        x = rng.normal(size=(1, 5, 7, 2))
        out, cache = maxpool2_forward(x)
        assert out.shape == (1, 2, 3, 2)
        g = maxpool2_backward(np.ones_like(out), cache)
        assert g.shape == x.shape
        assert np.all(g[:, 4, :, :] == 0)  # dropped row gets no gradient

    def test_selects_window_max(self, rng):
        x = rng.normal(size=(2, 6, 6, 3))
        out, _ = maxpool2_forward(x)
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    for c in range(3):
                        assert out[n, i, j, c] == x[n, 2*i:2*i+2, 2*j:2*j+2, c].max()

    def test_gradient_with_distinct_values(self, rng):
        # distinct entries keep the argmax stable under the probe step
        x = rng.permutation(np.arange(32, dtype=np.float64)).reshape(1, 4, 4, 2)
        co = rng.normal(size=(1, 2, 2, 2))
        loss = lambda: float(np.sum(maxpool2_forward(x)[0] * co))
        _, cache = maxpool2_forward(x)
        g = maxpool2_backward(co, cache)
        assert_grads_close(g, central_difference(loss, x))


    def test_tie_heavy_input_matches_window_loop(self, rng):
        # integer inputs in a small range tie often; the first maximum in
        # r0c0, r0c1, r1c0, r1c1 order must win, odd extents included
        x = rng.integers(-2, 3, size=(3, 7, 6, 2)).astype(np.float64)
        co = rng.normal(size=(3, 3, 3, 2))
        out, cache = maxpool2_forward(x)
        g = maxpool2_backward(co, cache)
        want_out = np.zeros_like(out)
        want_g = np.zeros_like(x)
        for n in range(3):
            for i in range(3):
                for j in range(3):
                    for c in range(2):
                        slots = [(2 * i, 2 * j), (2 * i, 2 * j + 1),
                                 (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)]
                        vals = [x[n, r, q, c] for r, q in slots]
                        r, q = slots[int(np.argmax(vals))]
                        want_out[n, i, j, c] = x[n, r, q, c]
                        want_g[n, r, q, c] = co[n, i, j, c]
        assert_array_equal(out, want_out)
        assert_array_equal(g, want_g)

    @pytest.mark.parametrize("shape", [(3, 6, 8, 2), (2, 7, 5, 3), (64, 24, 24, 8)],
                             ids=["even", "odd", "demo04"])
    def test_slot_major_input_gives_the_spec_layout_bits(self, rng, shape):
        """A slot-major input pools to the bits of the same values in the
        spec layout, and its gradient, scattered into that layout, routes to
        the same winners: exact ties across slots, and -0.0 against +0.0,
        included."""
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
        b, h, w, c = shape
        ho, wo = h // 2, w // 2
        slots = x[:, : 2 * ho, : 2 * wo].reshape(b, ho, 2, wo, 2, c).transpose(0, 2, 4, 1, 3, 5)
        out, cache = maxpool2_forward(x)
        got, slot_cache = maxpool2_forward(np.ascontiguousarray(slots))
        assert np.signbit(out[out == 0]).any() and not np.signbit(out[out == 0]).all()
        assert_bits_equal(got, out)
        co = rng.normal(size=out.shape)
        co[co > 1.0] = -0.0
        want = maxpool2_backward(co, cache)
        assert_bits_equal(maxpool2_backward(co, slot_cache, x.shape), want)
        if (h, w) == (2 * ho, 2 * wo):  # the default shape is the cropped one
            assert_bits_equal(maxpool2_backward(co, slot_cache), want)


class TestActivations:
    def test_relu_values(self):
        out, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_gradient_away_from_kink(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 1e-3] = 0.5
        co = rng.normal(size=(3, 4))
        loss = lambda: float(np.sum(relu_forward(x)[0] * co))
        _, cache = relu_forward(x)
        assert_grads_close(relu_backward(co, cache), central_difference(loss, x))

    def test_tanh_gradient(self, rng):
        x = rng.normal(size=(2, 5))
        co = rng.normal(size=(2, 5))
        loss = lambda: float(np.sum(tanh_forward(x)[0] * co))
        _, cache = tanh_forward(x)
        assert_grads_close(tanh_backward(co, cache), central_difference(loss, x),
                           rtol=1e-8, atol=1e-10)


class TestHingeLoss:
    def test_satisfied_margin(self):
        loss, grad = hinge_loss(2.0, 1.0)
        assert loss == 0.0 and grad == 0.0

    def test_at_zero_output(self):
        loss, grad = hinge_loss(0.0, 1.0)
        assert loss == 1.0 and grad == -1.0

    def test_negative_label_case(self):
        loss, grad = hinge_loss(-0.5, -1.0)
        assert loss == pytest.approx(0.5)
        x = np.array([-0.5])
        f = lambda: float(hinge_loss(x, np.array([-1.0]))[0].sum())
        assert_grads_close(np.array([grad]), central_difference(f, x))

    def test_zero_iff_margin_met(self, rng):
        y_hat = rng.normal(size=50) * 2
        y = np.where(rng.random(50) < 0.5, -1.0, 1.0)
        loss, _ = hinge_loss(y_hat, y)
        assert np.all(loss >= 0)
        assert_array_equal(loss == 0.0, y_hat * y >= 1.0)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            hinge_loss(0.5, 0.0)


class TestSoftmaxCE:
    def test_uniform_logits(self):
        loss, _ = softmax_ce_loss(np.zeros((1, 8)), [3])
        assert loss[0] == pytest.approx(np.log(8.0), rel=1e-12)

    def test_saturated_true_class(self):
        loss, _ = softmax_ce_loss(np.array([[1000.0, 0.0, 0.0]]), [0])
        assert loss[0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient(self, rng):
        z = rng.normal(size=(1, 5))
        loss = lambda: softmax_ce_loss(z, [2])[0][0]
        _, grad = softmax_ce_loss(z, [2])
        assert_grads_close(grad, central_difference(loss, z), rtol=1e-8, atol=1e-10)

    def test_batch_matches_per_row(self, rng):
        z = rng.normal(size=(4, 6))
        labels = np.array([0, 5, 2, 2])
        losses, grads = softmax_ce_loss(z, labels)
        for i in range(4):
            li, gi = softmax_ce_loss(z[i : i + 1], labels[i : i + 1])
            assert losses[i] == pytest.approx(li[0], rel=1e-14)
            assert_allclose(grads[i], gi[0], rtol=1e-14)

    def test_loss_non_negative(self, rng):
        losses, _ = softmax_ce_loss(rng.normal(size=(10, 4)), rng.integers(0, 4, 10))
        assert np.all(losses >= 0)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_ce_loss(np.zeros((1, 3)), [3])
