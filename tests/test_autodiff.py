"""Tensor-core tests: oracles for conv/norm/linear, gradient checks, Adam."""

import numpy as np
import pytest

from classvoice import autodiff as ad
from classvoice.autodiff import (
    AdamState,
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    binary_cross_entropy,
    conv1d,
    cumulative_layer_norm,
    exp_lr_schedule,
    global_layer_norm,
    grad_check,
    linear,
    prelu,
    relu,
    sigmoid,
)


def naive_conv1d(x, w, bias, dilation, groups, padding):
    """Direct loop dilated grouped convolution, for any grouping. The oracle."""
    c_in, t = x.shape
    c_out, cin_g, k = w.shape
    left, right = padding
    xp = np.zeros((c_in, t + left + right))
    xp[:, left : left + t] = x
    t_out = t + left + right - (k - 1) * dilation
    out = np.zeros((c_out, t_out))
    out_per_group = c_out // groups
    for o in range(c_out):
        grp = o // out_per_group
        for tt in range(t_out):
            acc = 0.0
            for i in range(cin_g):
                ci = grp * cin_g + i
                for kk in range(k):
                    acc += w[o, i, kk] * xp[ci, tt + kk * dilation]
            out[o, tt] = acc + (bias[o] if bias is not None else 0.0)
    return out


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        w = Tensor([[[1.0]]])
        out = conv1d(x, w)
        np.testing.assert_allclose(out.data, [[1, 2, 3, 4]])

    def test_ones_kernel_padded(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.ones((1, 1, 3))
        expected = naive_conv1d(x, w, None, 1, 1, (1, 1))
        np.testing.assert_allclose(expected, [[3, 6, 9, 7]])
        out = conv1d(Tensor(x), Tensor(w), dilation=1, padding=(1, 1))
        np.testing.assert_allclose(out.data, expected)

    def test_dilated_causal(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.ones((1, 1, 2))
        expected = naive_conv1d(x, w, None, 2, 1, (2, 0))
        np.testing.assert_allclose(expected, [[1, 2, 4, 6]])
        out = conv1d(Tensor(x), Tensor(w), dilation=2, padding=(2, 0))
        np.testing.assert_allclose(out.data, expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        for case in range(200):
            c = int(rng.integers(1, 5))
            t = int(rng.integers(1, 17))
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            if rng.random() < 0.5:  # pointwise
                groups, k, c_out = 1, 1, int(rng.integers(1, 6))
            else:  # depthwise
                groups, c_out = c, c
            need = 1 + (k - 1) * d
            left = int(rng.integers(0, need + 2))
            right = max(0, need - t - left) + int(rng.integers(0, 3))
            x = rng.standard_normal((c, t))
            w = rng.standard_normal((c_out, c // groups, k))
            bias = rng.standard_normal(c_out) if rng.random() < 0.5 else None
            expected = naive_conv1d(x, w, bias, d, groups, (left, right))
            out = conv1d(
                Tensor(x, dtype=np.float64),
                Tensor(w, dtype=np.float64),
                None if bias is None else Tensor(bias, dtype=np.float64),
                dilation=d,
                groups=groups,
                padding=(left, right),
            )
            np.testing.assert_allclose(out.data, expected, atol=1e-6, err_msg=f"case {case}")

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 10))
        for w_shape, groups in (((5, 3, 1), 1), ((3, 1, 3), 3)):  # pointwise, depthwise
            w = rng.standard_normal(w_shape)
            b = rng.standard_normal(w_shape[0])
            kw = dict(dilation=2, groups=groups, padding=(2, 2))
            batched = conv1d(Tensor(x), Tensor(w), Tensor(b), **kw)
            for i in range(4):
                single = conv1d(Tensor(x[i]), Tensor(w), Tensor(b), **kw)
                np.testing.assert_allclose(batched.data[i], single.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "w_shape,groups",
        [((4, 4, 3), 1), ((4, 2, 1), 2), ((8, 1, 3), 4), ((2, 1, 1), 4)],
        ids=["dense-k3", "grouped", "depth-multiplier", "fewer-outputs"],
    )
    def test_unsupported_grouping_rejected(self, w_shape, groups):
        x = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="pointwise .* or depthwise"):
            conv1d(x, Tensor(np.zeros(w_shape)), groups=groups)

    def test_shape_errors_name_offender(self):
        x = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="groups"):
            conv1d(x, Tensor(np.zeros((4, 2, 3))), groups=3)
        with pytest.raises(ShapeError, match="channels per group"):
            conv1d(x, Tensor(np.zeros((4, 3, 3))), groups=1)
        with pytest.raises(ShapeError, match="too short"):
            conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 3))), dilation=4)

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            conv1d(ad.log(Tensor(-np.ones((1, 4)))), Tensor(np.ones((1, 1, 1))))
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0, 0, 2])
        out = relu(Tensor([-3.0, -0.5]))
        np.testing.assert_allclose(out.data, [0, 0])

    def test_relu_gradient(self):
        x = Tensor([3.0, -1.0, 0.0], requires_grad=True)
        backward(ad.tsum(relu(x)))
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])

    def test_prelu_values(self):
        alpha = Tensor([0.25])
        np.testing.assert_allclose(prelu(Tensor([-2.0]), alpha).data, [-0.5])
        np.testing.assert_allclose(prelu(Tensor([5.0]), Tensor([123.0])).data, [5.0])

    def test_prelu_equals_relu_at_alpha_zero(self):
        x = np.linspace(-3, 3, 13)
        np.testing.assert_array_equal(
            prelu(Tensor(x), Tensor([0.0])).data, relu(Tensor(x)).data
        )

    def test_prelu_alpha_gradient(self):
        # d(out)/d(alpha) at x=-2 is -2; check against central differences too
        alpha = Tensor([0.25], requires_grad=True, dtype=np.float64)
        backward(ad.tsum(prelu(Tensor([-2.0], dtype=np.float64), alpha)))
        np.testing.assert_allclose(alpha.grad, [-2.0])
        err = grad_check(
            lambda a: ad.tsum(prelu(Tensor([-2.0, 1.5], dtype=np.float64), a)),
            Tensor([0.25], requires_grad=True, dtype=np.float64),
        )
        assert err < 1e-6

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_is_finite(self):
        out = sigmoid(Tensor([1000.0, -1000.0]))
        assert np.all(np.isfinite(out.data))


class TestLayerNorms:
    def test_gln_constant_input_is_zero(self):
        c = 3
        gain = Tensor(np.ones((c, 1)))
        bias = Tensor(np.zeros((c, 1)))
        out = global_layer_norm(Tensor(np.full((c, 5), 7.0)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 100.0])
    def test_gln_scale_invariance(self, scale):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 9))
        gain = Tensor(np.ones((4, 1)))
        bias = Tensor(np.zeros((4, 1)))
        a = global_layer_norm(Tensor(x), gain, bias).data
        b = global_layer_norm(Tensor(scale * x), gain, bias).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_gln_against_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5))
        gain = rng.standard_normal((3, 1))
        bias = rng.standard_normal((3, 1))
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expected = gain * (x - mu) / np.sqrt(var + 1e-8) + bias
        out = global_layer_norm(
            Tensor(x, dtype=np.float64), Tensor(gain, dtype=np.float64), Tensor(bias, dtype=np.float64)
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_cln_first_column_is_column_norm(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6))
        gain = Tensor(np.ones((4, 1)), dtype=np.float64)
        bias = Tensor(np.zeros((4, 1)), dtype=np.float64)
        out = cumulative_layer_norm(Tensor(x, dtype=np.float64), gain, bias).data
        col = x[:, 0]
        expected = (col - col.mean()) / np.sqrt(((col - col.mean()) ** 2).mean() + 1e-8)
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-9)

    def test_cln_is_causal_bit_exact(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        gain = Tensor(np.ones((3, 1), np.float32))
        bias = Tensor(np.zeros((3, 1), np.float32))
        base = cumulative_layer_norm(Tensor(x), gain, bias).data
        for t in range(7):
            x2 = x.copy()
            x2[:, t + 1 :] += rng.standard_normal(x2[:, t + 1 :].shape).astype(np.float32)
            out = cumulative_layer_norm(Tensor(x2), gain, bias).data
            assert np.array_equal(out[:, : t + 1], base[:, : t + 1])

    def test_cln_last_column_matches_gln(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 7))
        gain = Tensor(rng.standard_normal((5, 1)), dtype=np.float64)
        bias = Tensor(rng.standard_normal((5, 1)), dtype=np.float64)
        xt = Tensor(x, dtype=np.float64)
        c_out = cumulative_layer_norm(xt, gain, bias).data
        g_out = global_layer_norm(xt, gain, bias).data
        np.testing.assert_allclose(c_out[:, -1], g_out[:, -1], atol=1e-6)


class TestLinear:
    def test_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        out = linear(Tensor(np.ones(4)), Tensor(np.zeros((2, 4))), Tensor([5.0, -1.0]))
        np.testing.assert_allclose(out.data, [5.0, -1.0])

    def test_random_against_matmul_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        out = linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, w @ x + b, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="does not match"):
            linear(Tensor(np.ones(4)), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))


class TestBinaryCrossEntropy:
    def test_half_is_ln2(self):
        loss = binary_cross_entropy(Tensor([0.5]), [1.0])
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)

    def test_confident_correct_is_near_zero(self):
        loss = binary_cross_entropy(Tensor([1.0 - 1e-7], dtype=np.float64), [1.0])
        assert loss.item() == pytest.approx(1e-7, rel=1e-2)

    def test_rejects_soft_targets(self):
        with pytest.raises(ValueError, match="0 or 1"):
            binary_cross_entropy(Tensor([0.5]), [0.3])

    def test_gradient_wrt_logits(self):
        # composed with sigmoid; oracle is both central differences and the
        # closed form d(loss)/d(logit) = p - y
        rng = np.random.default_rng(4)
        z = rng.standard_normal(3)
        y = np.array([1.0, 0.0, 1.0])
        f = lambda t: binary_cross_entropy(sigmoid(t), y)
        err = grad_check(f, Tensor(z, requires_grad=True, dtype=np.float64))
        assert err < 1e-4
        zt = Tensor(z, requires_grad=True, dtype=np.float64)
        backward(f(zt))
        p = 1 / (1 + np.exp(-z))
        np.testing.assert_allclose(zt.grad, p - y, atol=1e-9)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(ad.mul(x, x))

    def test_cycle_detected(self):
        x = Tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
        z = ad.tsum(y)
        # sabotage the graph: make y a descendant of itself
        y._parents = (z,)
        with pytest.raises(GraphError, match="cycle"):
            backward(z)


class TestGradCheck:
    """Every differentiable op against central differences, >= 10 seeds."""

    SEEDS = list(range(10))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv1d(self, seed):
        # pointwise, batched and padded
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 3, 7)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 3, 1)) * 0.5, requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        f = lambda t: ad.tsum(ad.mul(c := conv1d(t, w, b, padding=(2, 1)), c))
        assert grad_check(f, x) < 1e-4
        fw = lambda t: ad.tsum(ad.mul(c := conv1d(x, t, b, padding=(2, 1)), c))
        assert grad_check(fw, w) < 1e-4
        fb = lambda t: ad.tsum(ad.mul(c := conv1d(x, w, t, padding=(2, 1)), c))
        assert grad_check(fb, b) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_depthwise_conv(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 1, 3)), requires_grad=True, dtype=np.float64)
        f = lambda t: ad.tsum(ad.mul(c := conv1d(t, w, groups=4, padding=(2, 0)), c))
        assert grad_check(f, x) < 1e-4
        fw = lambda t: ad.tsum(ad.mul(c := conv1d(x, t, groups=4, padding=(2, 0)), c))
        assert grad_check(fw, w) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu_prelu(self, seed):
        rng = np.random.default_rng(seed)
        # keep inputs away from the kink so finite differences are valid
        x = rng.uniform(0.1, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: ad.tsum(ad.mul(r := relu(t), r)), xt) < 1e-4
        alpha = Tensor([0.25], requires_grad=True, dtype=np.float64)
        xt2 = Tensor(x, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: ad.tsum(ad.mul(r := prelu(t, alpha), r)), xt2) < 1e-4
        assert grad_check(lambda a: ad.tsum(ad.mul(r := prelu(xt2, a), r)), alpha) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_norms(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
        gain = Tensor(rng.standard_normal((3, 1)), requires_grad=True, dtype=np.float64)
        bias = Tensor(rng.standard_normal((3, 1)), requires_grad=True, dtype=np.float64)
        for norm in (global_layer_norm, cumulative_layer_norm):
            f = lambda t: ad.tsum(ad.mul(n := norm(t, gain, bias), n))
            assert grad_check(f, x) < 1e-4
            fg = lambda t: ad.tsum(ad.mul(n := norm(x, t, bias), n))
            assert grad_check(fg, gain) < 1e-4
            fb = lambda t: ad.tsum(ad.mul(n := norm(x, gain, t), n))
            assert grad_check(fb, bias) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_sigmoid_softmax_bce(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
        y = (rng.random(3) < 0.5).astype(np.float64)
        f = lambda t: binary_cross_entropy(sigmoid(linear(t, w, b)), y)
        assert grad_check(f, x) < 1e-4
        fw = lambda t: binary_cross_entropy(sigmoid(linear(x, t, b)), y)
        assert grad_check(fw, w) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: ad.tsum(ad.mul(m := ad.tmean(t, axis=-1), m)), x) < 1e-4


def square_sum(t):
    return ad.tsum(ad.mul(t, t))


class TestFusedOpGradCheck:
    """Every input of each fused op against central differences, with cLN and gLN statistics."""

    @staticmethod
    def leaves(seed, c=4, t=6):
        rng = np.random.default_rng(seed)
        f64 = lambda a: Tensor(a, requires_grad=True, dtype=np.float64)
        return dict(
            x=f64(rng.standard_normal((2, c, t)) + 0.5),
            gain=f64(rng.standard_normal((c, 1))),
            beta=f64(rng.standard_normal((c, 1))),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cumulative", [True, False], ids=["cLN", "gLN"])
    def test_layer_norm_stats(self, seed, cumulative):
        x = self.leaves(seed)["x"]
        assert grad_check(lambda t: square_sum(ad.layer_norm_stats(t, cumulative)), x) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cumulative", [True, False], ids=["cLN", "gLN"])
    def test_normalize(self, seed, cumulative):
        v = self.leaves(seed)
        x, gain, beta = v["x"], v["gain"], v["beta"]
        stats = Tensor(ad.layer_norm_stats(x, cumulative).data.copy(), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: square_sum(ad.normalize(t, stats, gain, beta)), x) < 1e-4
        assert grad_check(lambda t: square_sum(ad.normalize(x, t, gain, beta)), stats) < 1e-4
        assert grad_check(lambda t: square_sum(ad.normalize(x, stats, t, beta)), gain) < 1e-4
        assert grad_check(lambda t: square_sum(ad.normalize(x, stats, gain, t)), beta) < 1e-4

    @pytest.mark.parametrize(
        "padding,dilation", [((0, 0), 1), ((1, 1), 1), ((4, 0), 2), ((2, 2), 2), ((5, 1), 2), ((0, 3), 1)]
    )
    def test_depthwise_padding_and_dilation(self, padding, dilation):
        rng = np.random.default_rng(sum(padding) + dilation)
        x = Tensor(rng.standard_normal((2, 3, 7)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 1, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
        kw = dict(dilation=dilation, groups=3, padding=padding)
        out = conv1d(x, w, b, **kw)
        for i in range(2):
            want = naive_conv1d(x.data[i], w.data, b.data, dilation, 3, padding)
            np.testing.assert_allclose(out.data[i], want, atol=1e-12)
        assert grad_check(lambda t: square_sum(conv1d(t, w, b, **kw)), x) < 1e-4
        assert grad_check(lambda t: square_sum(conv1d(x, t, b, **kw)), w) < 1e-4
        assert grad_check(lambda t: square_sum(conv1d(x, w, t, **kw)), b) < 1e-4

    def test_prelu_gradient_at_zero_is_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True, dtype=np.float64)
        alpha = Tensor([0.25], requires_grad=True, dtype=np.float64)
        backward(ad.tsum(prelu(x, alpha)))
        np.testing.assert_array_equal(x.grad, [0.25, 0.0, 1.0])
        np.testing.assert_array_equal(alpha.grad, [-1.0])


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(3)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([0.0], dtype=np.float64))
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(1)], state, lr=1e-3)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_two_steps_match_scalar_trace(self):
        # independent scalar re-derivation of two bias-corrected updates
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.5
        m = v = 0.0
        param = 1.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            param -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        p = Tensor(np.array([1.0], dtype=np.float64))
        state = AdamState.for_params([p])
        adam_step([p], [np.array([g])], state, lr)
        adam_step([p], [np.array([g])], state, lr)
        assert p.data[0] == pytest.approx(param, abs=1e-12)
        assert state.step_count == 2

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3))
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros(4)], state, lr=0.1)


class TestLrSchedule:
    def test_endpoints(self):
        assert exp_lr_schedule(0, 150, 1e-5, 1e-8) == pytest.approx(1e-5, rel=1e-12)
        assert exp_lr_schedule(149, 150, 1e-5, 1e-8) == pytest.approx(1e-8, rel=1e-9)

    def test_midpoint_is_geometric_mean(self):
        # exponent exactly 0.5: epoch 75 of 151
        assert exp_lr_schedule(75, 151, 1e-5, 1e-8) == pytest.approx(np.sqrt(1e-5 * 1e-8), rel=1e-9)

    def test_degenerate_total(self):
        assert exp_lr_schedule(0, 1, 1e-5, 1e-8) == 1e-5

    def test_epoch_range_checked(self):
        with pytest.raises(ValueError):
            exp_lr_schedule(150, 150, 1e-5, 1e-8)


class TestTensorInvariants:
    def test_values_length_matches_shape(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.size == 6 and t.shape == (2, 3)

    def test_grad_matches_shape_after_backward(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(ad.tsum(x))
        assert x.grad.shape == x.shape

    def test_nan_inf_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteError):
                Tensor([[1.0, bad]])

    def test_float64_preserved_float32_default(self):
        assert Tensor([1.0]).dtype == np.float32
        assert Tensor(np.array([1.0])).dtype == np.float64
        assert Tensor([1, 2]).dtype == np.float32
