"""Tensor-core tests: oracles for conv/norm/linear, gradient checks, Adam."""

import gc
import re
import tracemalloc
import weakref

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
    linear,
    prelu,
    relu,
    sigmoid,
)

from autodiff_testing import grad_check, mul, tsum


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
        out = conv1d(x, w, Tensor([0.0]))
        np.testing.assert_allclose(out.data, [[1, 2, 3, 4]])

    def test_ones_kernel_padded(self):
        # causal: two zeros of padding on the left, none on the right
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.ones((1, 1, 3))
        expected = naive_conv1d(x, w, None, 1, 1, (2, 0))
        np.testing.assert_allclose(expected, [[1, 3, 6, 9]])
        out = conv1d(Tensor(x), Tensor(w), Tensor([0.0]), dilation=1)
        np.testing.assert_allclose(out.data, expected)

    def test_dilated_causal(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.ones((1, 1, 2))
        expected = naive_conv1d(x, w, None, 2, 1, (2, 0))
        np.testing.assert_allclose(expected, [[1, 2, 4, 6]])
        out = conv1d(Tensor(x), Tensor(w), Tensor([0.0]), dilation=2)
        np.testing.assert_allclose(out.data, expected)

    def test_random_against_oracle(self):
        # against the oracle padded causally, by the span (k-1)*d on the left: spans of 0..8 steps over T of 1..16
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
            x = rng.standard_normal((c, t))
            w = rng.standard_normal((c_out, c // groups, k))
            bias = rng.standard_normal(c_out)
            expected = naive_conv1d(x, w, bias, d, groups, ((k - 1) * d, 0))
            out = conv1d(
                Tensor(x, dtype=np.float64),
                Tensor(w, dtype=np.float64),
                Tensor(bias, dtype=np.float64),
                dilation=d,
                groups=groups,
            )
            np.testing.assert_allclose(out.data, expected, atol=1e-6, err_msg=f"case {case}")

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 10))  # [C, B, T]
        for w_shape, groups in (((5, 3, 1), 1), ((3, 1, 3), 3)):  # pointwise, depthwise
            w = rng.standard_normal(w_shape)
            b = rng.standard_normal(w_shape[0])
            kw = dict(dilation=2, groups=groups)
            batched = conv1d(Tensor(x), Tensor(w), Tensor(b), **kw)
            for i in range(4):
                single = conv1d(Tensor(x[:, i]), Tensor(w), Tensor(b), **kw)
                np.testing.assert_allclose(batched.data[:, i], single.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "w_shape,groups",
        [((4, 4, 3), 1), ((4, 2, 1), 2), ((8, 1, 3), 4), ((2, 1, 1), 4)],
        ids=["dense-k3", "grouped", "depth-multiplier", "fewer-outputs"],
    )
    def test_unsupported_grouping_rejected(self, w_shape, groups):
        x = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="pointwise .* or depthwise"):
            conv1d(x, Tensor(np.zeros(w_shape)), Tensor(np.zeros(w_shape[0])), groups=groups)

    def test_shape_errors_name_offender(self):
        x = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="groups"):
            conv1d(x, Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros(4)), groups=3)
        with pytest.raises(ShapeError, match="channels per group"):
            conv1d(x, Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros(4)), groups=1)
        with pytest.raises(ShapeError, match="bias shape"):
            conv1d(x, Tensor(np.zeros((4, 1, 3))), Tensor(np.zeros(3)), groups=4)

    def test_non_finite_rejected(self):
        # two channels of 3e38 sum past float32's max (3.4e38): the conv's own output is inf
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            conv1d(Tensor(np.full((2, 4), 3e38, np.float32)), Tensor(np.ones((1, 2, 1), np.float32)), Tensor([0.0]))
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
        backward(tsum(relu(x)))
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
        backward(tsum(prelu(Tensor([-2.0], dtype=np.float64), alpha)))
        np.testing.assert_allclose(alpha.grad, [-2.0])
        err = grad_check(
            lambda a: tsum(prelu(Tensor([-2.0, 1.5], dtype=np.float64), a)),
            Tensor([0.25], requires_grad=True, dtype=np.float64),
        )
        assert err < 1e-6

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_is_finite(self):
        out = sigmoid(Tensor([1000.0, -1000.0]))
        assert np.all(np.isfinite(out.data))


class TestLayerNorms:
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
        # the last step's prefix is the whole window: the global (gLN) statistics, from a two-pass oracle
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 7))
        gain = rng.standard_normal((5, 1))
        bias = rng.standard_normal((5, 1))
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expected = gain * (x - mu) / np.sqrt(var + 1e-8) + bias
        out = cumulative_layer_norm(
            Tensor(x, dtype=np.float64), Tensor(gain, dtype=np.float64), Tensor(bias, dtype=np.float64)
        )
        np.testing.assert_allclose(out.data[:, -1], expected[:, -1], atol=1e-6)


def _suffix_sum(a):
    return np.flip(np.cumsum(np.flip(a, -1), axis=-1), -1)


def reference_layer_norm_stats(x):
    """Frozen copy of the statistics op the fused cLN replaced, with its own backward.

    Each step's prefix mean and inverse deviation, as one [2, T] or
    [2, B, T] tensor.
    """
    c, t = x.shape[0], x.shape[-1]
    xd = x.data
    counts = np.arange(1, t + 1, dtype=xd.dtype) * c
    mu = np.cumsum(xd.sum(axis=0, keepdims=True), axis=-1) / counts
    sq = np.einsum("c...,c...->...", xd, xd)[None]
    var = np.cumsum(sq, axis=-1) / counts - mu * mu
    live = var > 0
    r = 1.0 / np.sqrt(np.maximum(var, 0.0) + np.asarray(ad.NORM_EPS, dtype=xd.dtype))

    def back(g):
        g_mu, g_r = g[0:1], g[1:2]
        g_var = -0.5 * g_r * (r * r * r) * live
        g_s = _suffix_sum((g_mu - 2.0 * mu * g_var) / counts)
        g_q = _suffix_sum(g_var / counts)
        ad._accum(x, g_s + 2.0 * xd * g_q)

    return ad._make(np.concatenate([mu, r]), (x,), back)


def reference_normalize(x, stats, gain, bias):
    """Frozen copy of the op the fused cLN replaced that applied the statistics, with its own backward."""
    mu, r = stats.data[0:1], stats.data[1:2]
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    gd = gain.data.reshape(per_channel)
    out = x.data - mu
    out *= r
    out *= gd
    out += bias.data.reshape(per_channel)

    def back(g):
        xhat = x.data - mu
        xhat *= r
        ad._accum(gain, np.einsum("cn,cn->c", ad._rows(g), ad._rows(xhat))[:, None])
        ad._accum(bias, np.einsum("cn->c", ad._rows(g))[:, None])
        h = g * gd
        g_r = np.einsum("c...,c...->...", h, xhat)[None] / r
        h *= r
        ad._accum(stats, np.concatenate([-h.sum(axis=0, keepdims=True), g_r]))
        ad._accum(x, h)

    return ad._make(out, (x, stats, gain, bias), back)


def reference_cln(x, gain, bias):
    """cLN as the two ops the fused one replaced, frozen as a bit-exact oracle.

    The oracle's own gradients and batch independence are checked in
    TestFusedOpGradCheck and TestChannelMajorBatches, as they were when the
    two ops were the library's.
    """
    return reference_normalize(x, reference_layer_norm_stats(x), gain, bias)


class TestFusedNormParity:
    """The fused cumulative_layer_norm gives the two-op composition's output and gradients bit for bit."""

    # at this constant the prefix variance rounds to <= 0 while x - mu does not
    # round to 0, in float32 and float64, so the clamp binds where g_r != 0
    CONSTANT = 0.81

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 9), (5, 3, 9)], ids=["CT", "CBT"])
    @pytest.mark.parametrize("prefix", [0, 4], ids=["random", "constant-prefix"])
    def test_bit_exact(self, dtype, shape, prefix):
        rng = np.random.default_rng([np.dtype(dtype).itemsize, len(shape), prefix])
        x = rng.standard_normal(shape).astype(dtype)
        x[..., :prefix] = self.CONSTANT
        gain, bias = (rng.standard_normal((shape[0], 1)).astype(dtype) for _ in range(2))
        r = rng.standard_normal(shape).astype(dtype)
        results = []
        for op in (reference_cln, cumulative_layer_norm):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias)]
            out = op(*leaves)
            backward(weighted_sum(out, r))
            results.append([out.data] + [t.grad for t in leaves])
        for name, want, got in zip(("out", "x", "gain", "bias"), *results):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want), name


class TestPreluNormParity:
    """cumulative_layer_norm with a slope gives prelu followed by the op without one, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 9), (6, 3, 9)], ids=["CT", "CBT"])
    @pytest.mark.parametrize("slope", [0.25, 1.5], ids=["max", "min"])  # PReLU runs max(x, a*x) for a <= 1, else min
    def test_bit_exact(self, dtype, shape, slope):
        rng = np.random.default_rng([np.dtype(dtype).itemsize, len(shape), int(4 * slope)])
        x = rng.standard_normal(shape).astype(dtype)
        x.reshape(-1)[::5] = 0.0  # exact zeros, where both gradients are 0
        gain, bias = (rng.standard_normal((shape[0], 1)).astype(dtype) for _ in range(2))
        r = rng.standard_normal(shape).astype(dtype)
        results = []
        for fused in (False, True):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias, [slope])]
            xt, g, b, alpha = leaves
            out = cumulative_layer_norm(xt, g, b, alpha) if fused else cumulative_layer_norm(prelu(xt, alpha), g, b)
            backward(weighted_sum(out, r))
            results.append([out.data] + [t.grad for t in leaves])
        for name, want, got in zip(("out", "x", "gain", "bias", "alpha"), *results):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want), name

    def test_graph_keeps_no_activation(self):
        # the fused op's parents are its inputs: no PReLU output tensor sits between x and the norm
        arrays = (np.ones((2, 3)), np.ones((2, 1)), np.zeros((2, 1)), [0.25])
        x, gain, bias, alpha = (Tensor(a, requires_grad=True) for a in arrays)
        out = cumulative_layer_norm(x, gain, bias, alpha)
        assert out._parents == (x, gain, bias, alpha)


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


def reference_bce(p, y, rows=None):
    """The loss as the composition of generic ops that the fused op replaced, frozen as a bit-exact oracle.

    Each op is a copy of the one it used (clip, log, sub, neg, mul, add,
    tsum, with broadcasting), built over the same graph primitives.
    """

    def unbroadcast(g, shape):
        extra = g.ndim - len(shape)
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
        if axes:
            g = g.sum(axis=axes, keepdims=True)
        return g

    def const_like(t, value):
        return Tensor(np.asarray(value, dtype=t.dtype), dtype=t.dtype)

    def add(a, b):
        def back(g):
            ad._accum(a, unbroadcast(g, a.shape))
            ad._accum(b, unbroadcast(g, b.shape))

        return ad._make(a.data + b.data, (a, b), back)

    def sub(a, b):
        def back(g):
            ad._accum(a, unbroadcast(g, a.shape))
            ad._accum(b, unbroadcast(-g, b.shape))

        return ad._make(a.data - b.data, (a, b), back)

    def mul(a, b):
        def back(g):
            ad._accum(a, unbroadcast(g * b.data, a.shape))
            ad._accum(b, unbroadcast(g * a.data, b.shape))

        return ad._make(a.data * b.data, (a, b), back)

    def neg(a):
        return ad._make(-a.data, (a,), lambda g: ad._accum(a, -g))

    def log(a):
        return ad._make(np.log(a.data), (a,), lambda g: ad._accum(a, g / a.data))

    def clip(a, lo, hi):
        mask = (a.data > lo) & (a.data < hi)
        return ad._make(np.clip(a.data, lo, hi), (a,), lambda g: ad._accum(a, g * mask))

    def tsum(a):
        return ad._make(a.data.sum(), (a,), lambda g: ad._accum(a, np.broadcast_to(g, a.shape)))

    y = np.asarray(y, dtype=p.dtype)
    pc = clip(p, 1e-7, 1.0 - 1e-7)
    yt = Tensor(y, dtype=p.dtype)
    one = const_like(p, 1.0)
    total = tsum(neg(add(mul(yt, log(pc)), mul(sub(one, yt), log(sub(one, pc))))))
    if p.ndim == 2:
        return mul(total, const_like(total, 1.0 / (rows or p.shape[0])))
    return total


class TestFusedLossParity:
    """The fused binary_cross_entropy gives the composition's loss and gradient bit for bit."""

    EDGES = (0.0, 1e-8, 1e-7, 1.0 - 1e-7, 1.0 - 1e-8, 1.0)

    @staticmethod
    def loss_and_grad(fn, p, y, rows):
        leaf = Tensor(p, requires_grad=True, dtype=p.dtype)
        loss = fn(leaf, y, rows)
        backward(loss)
        return loss.data, leaf.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,rows", [((2,), None), ((1, 2), None), ((5, 2), None), ((5, 2), 13)],
                             ids=["vector", "one-row", "batch", "micro-batch"])
    def test_bit_exact(self, dtype, shape, rows):
        rng = np.random.default_rng([np.dtype(dtype).itemsize, len(shape), shape[0], rows or 0])
        edges = np.array(self.EDGES, dtype=dtype)
        for case in range(50):
            p = rng.uniform(0.0, 1.0, shape).astype(dtype)
            if case % 2:  # plant clamp-edge values among the random ones
                flat = p.reshape(-1)
                picks = rng.random(flat.size) < 0.5
                flat[picks] = rng.choice(edges, picks.sum())
            y = (rng.random(shape) < 0.5).astype(dtype)
            want_loss, want_grad = self.loss_and_grad(reference_bce, p, y, rows)
            got_loss, got_grad = self.loss_and_grad(binary_cross_entropy, p, y, rows)
            assert got_loss.dtype == want_loss.dtype and np.array_equal(got_loss, want_loss), f"case {case}"
            assert got_grad.dtype == want_grad.dtype == dtype, f"case {case}"
            assert np.array_equal(got_grad, want_grad), f"case {case}"

    def test_every_edge_value(self):
        for dtype in (np.float32, np.float64):
            p = np.array(self.EDGES * 2, dtype=dtype).reshape(-1, 2)
            for y in (np.zeros_like(p), np.ones_like(p)):
                want = self.loss_and_grad(reference_bce, p, y, None)
                got = self.loss_and_grad(binary_cross_entropy, p, y, None)
                assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


class TestElementwiseShapes:
    @pytest.mark.parametrize("op", [ad.add], ids=["add"])
    @pytest.mark.parametrize("shapes", [((3,), (1,)), ((2, 3), (3,)), ((2, 3), (3, 2))], ids=["scalar", "row", "transposed"])
    def test_mismatched_shapes_rejected_naming_both(self, op, shapes):
        a, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError, match=rf"got {re.escape(str(shapes[0]))} and {re.escape(str(shapes[1]))}"):
            op(a, b)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.add(mul(x, x), x)  # x^2 + x -> grad 2x + 1
        backward(tsum(y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(mul(x, x))

    def test_cycle_detected(self):
        x = Tensor([1.0], requires_grad=True)
        y = mul(x, x)
        z = tsum(y)
        # sabotage the graph: make y a descendant of itself
        y._parents = (z,)
        with pytest.raises(GraphError, match="cycle"):
            backward(z)


class TestGraphRelease:
    """backward consumes the graph as it goes; gradients are shared, never written after hand-over."""

    def test_interior_activation_freed_while_loss_held(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 2, 9)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4, 1)), requires_grad=True)
        gain, bias = Tensor(np.ones((4, 1)), requires_grad=True), Tensor(np.zeros((4, 1)), requires_grad=True)
        h = conv1d(x, w, Tensor(np.zeros(4)))
        activation = weakref.ref(h.data)
        loss = tsum(cumulative_layer_norm(prelu(h, Tensor([0.25])), gain, bias))
        del h
        assert activation() is not None  # the graph holds it until backward
        backward(loss)
        assert activation() is None
        assert loss.grad is None and loss._parents == ()
        for leaf in (x, w, gain, bias):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_second_backward_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        loss = tsum(mul(x, x))
        backward(loss)
        grad = x.grad
        with pytest.raises(GraphError, match="already ran"):
            backward(loss)
        assert x.grad is grad

    def test_loss_over_a_consumed_subgraph_raises_before_any_gradient(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = mul(x, x)
        backward(tsum(h))
        grad = x.grad
        with pytest.raises(GraphError, match="consumed"):
            backward(tsum(relu(h)))
        assert x.grad is grad

    def test_tensor_feeding_one_op_twice(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True, dtype=np.float64)
        backward(tsum(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        h = mul(x, Tensor([1.0, 1.0, 1.0], dtype=np.float64))  # an interior node used twice
        x.grad = None
        backward(tsum(ad.add(h, h)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_residual_path_gradient(self):
        # out = h + sigmoid(h) with h = x*x: h feeds the skip and the branch
        x = Tensor([0.5, -1.5, 2.0], requires_grad=True, dtype=np.float64)
        h = mul(x, x)
        backward(tsum(ad.add(h, sigmoid(h))))
        s = 1 / (1 + np.exp(-x.data**2))
        np.testing.assert_allclose(x.grad, (1 + s * (1 - s)) * 2 * x.data, rtol=1e-12)

    @pytest.mark.parametrize("add_first", [True, False])
    def test_pass_through_gradient_unchanged_by_other_branch(self, add_first):
        # add hands its incoming g to both inputs as is; a also feeds mul(a, a),
        # whose gradient must accumulate into a without writing into g (b's grad)
        a = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        b = Tensor([3.0, 4.0], requires_grad=True, dtype=np.float64)
        w = Tensor([5.0, 7.0], dtype=np.float64)
        z = ad.add(a, b)
        seen = {}
        through = z._backward

        def spy(g):
            seen["g"], seen["copy"] = g, g.copy()
            through(g)

        z._backward = spy
        terms = [mul(z, w), mul(a, a)]
        backward(tsum(ad.add(*(terms if add_first else terms[::-1]))))
        np.testing.assert_array_equal(seen["g"], seen["copy"])
        np.testing.assert_array_equal(b.grad, w.data)
        np.testing.assert_array_equal(a.grad, w.data + 2 * a.data)


class TestReleasedNormOutput:
    """A cLN output in a training graph can be released: backward rebuilds it, with the forward's bits."""

    def norm(self, dtype, slope, rng, shape=(6, 3, 40)):
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True, dtype=dtype)
        gain = Tensor(rng.uniform(0.5, 1.5, (shape[0], 1)).astype(dtype), requires_grad=True, dtype=dtype)
        bias = Tensor(rng.uniform(-0.2, 0.2, (shape[0], 1)).astype(dtype), requires_grad=True, dtype=dtype)
        alpha = None if slope is None else Tensor([slope], requires_grad=True, dtype=dtype)
        return cumulative_layer_norm(x, gain, bias, alpha), [t for t in (x, gain, bias, alpha) if t is not None]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [None, 0.25, 1.7], ids=["no-prelu", "max", "min"])
    def test_rebuilt_array_has_the_forward_bytes(self, dtype, slope):
        out, _ = self.norm(dtype, slope, np.random.default_rng(1))
        want = out.data.copy()
        ad.release(out)
        assert out.data is None
        assert (out.shape, out.ndim, out.size, out.dtype) == (want.shape, 3, want.size, np.dtype(dtype))
        rebuilt = ad._value(out)
        assert rebuilt.dtype == want.dtype and rebuilt.tobytes() == want.tobytes()
        assert out.data is None  # the rebuild is handed to the reader, not kept

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [None, 0.25, 1.7], ids=["no-prelu", "max", "min"])
    @pytest.mark.parametrize("groups", [1, 6], ids=["pointwise", "depthwise"])
    def test_gradients_equal_an_unreleased_run(self, dtype, slope, groups):
        results = []
        for released in (False, True):
            rng = np.random.default_rng(2)
            out, leaves = self.norm(dtype, slope, rng)
            w = Tensor(rng.standard_normal((6, 6 // groups, 1 if groups == 1 else 3)).astype(dtype), requires_grad=True, dtype=dtype)
            y = conv1d(out, w, Tensor(np.zeros(6, dtype), dtype=dtype), 2, groups)
            if released:
                ad.release(out)
            backward(weighted_sum(y, rng.standard_normal(y.shape).astype(dtype)))
            results.append([t.grad.tobytes() for t in leaves + [w]])
        assert results[0] == results[1]

    def test_release_without_a_rebuild_does_nothing(self):
        frozen = cumulative_layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))))
        leaf = Tensor(np.ones(3), requires_grad=True)
        for t in (frozen, leaf):
            data = t.data
            ad.release(t)
            assert t.data is data and t._rebuild is None

    def test_shape_follows_rebound_data(self):
        t = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        t.data = np.ones((4, 5, 6))
        assert (t.shape, t.ndim, t.size, t.dtype) == ((4, 5, 6), 3, 120, np.float64)

    def test_graph_freed_without_the_cyclic_gc(self):
        # the rebuild holds the norm's input, not its output: nothing cyclic keeps the input alive
        rng = np.random.default_rng(3)
        gc.disable()
        try:
            x = Tensor(rng.standard_normal((4, 2, 9)), requires_grad=True)
            h = conv1d(x, Tensor(rng.standard_normal((4, 4, 1)), requires_grad=True), Tensor(np.zeros(4)))
            activation = weakref.ref(h.data)
            gain, bias = Tensor(np.ones((4, 1)), requires_grad=True), Tensor(np.zeros((4, 1)), requires_grad=True)
            normed = cumulative_layer_norm(h, gain, bias, Tensor([0.25]))
            loss = tsum(conv1d(normed, Tensor(rng.standard_normal((4, 4, 1)), requires_grad=True), Tensor(np.zeros(4))))
            ad.release(normed)
            del h, normed
            backward(loss)
            assert activation() is None
        finally:
            gc.enable()


class TestGradCheck:
    """Every differentiable op against central differences, >= 10 seeds."""

    SEEDS = list(range(10))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv1d(self, seed):
        # pointwise and batched ([C, B, T])
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 2, 7)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 3, 1)) * 0.5, requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        f = lambda t: tsum(mul(c := conv1d(t, w, b), c))
        assert grad_check(f, x) < 1e-4
        fw = lambda t: tsum(mul(c := conv1d(x, t, b), c))
        assert grad_check(fw, w) < 1e-4
        fb = lambda t: tsum(mul(c := conv1d(x, w, t), c))
        assert grad_check(fb, b) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_depthwise_conv(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 1, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        f = lambda t: tsum(mul(c := conv1d(t, w, b, groups=4), c))
        assert grad_check(f, x) < 1e-4
        fw = lambda t: tsum(mul(c := conv1d(x, t, b, groups=4), c))
        assert grad_check(fw, w) < 1e-4
        fb = lambda t: tsum(mul(c := conv1d(x, w, t, groups=4), c))
        assert grad_check(fb, b) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu_prelu(self, seed):
        rng = np.random.default_rng(seed)
        # keep inputs away from the kink so finite differences are valid
        x = rng.uniform(0.1, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: tsum(mul(r := relu(t), r)), xt) < 1e-4
        alpha = Tensor([0.25], requires_grad=True, dtype=np.float64)
        xt2 = Tensor(x, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: tsum(mul(r := prelu(t, alpha), r)), xt2) < 1e-4
        assert grad_check(lambda a: tsum(mul(r := prelu(xt2, a), r)), alpha) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_norms(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
        gain = Tensor(rng.standard_normal((3, 1)), requires_grad=True, dtype=np.float64)
        bias = Tensor(rng.standard_normal((3, 1)), requires_grad=True, dtype=np.float64)
        f = lambda t: tsum(mul(n := cumulative_layer_norm(t, gain, bias), n))
        assert grad_check(f, x) < 1e-4
        fg = lambda t: tsum(mul(n := cumulative_layer_norm(x, t, bias), n))
        assert grad_check(fg, gain) < 1e-4
        fb = lambda t: tsum(mul(n := cumulative_layer_norm(x, gain, t), n))
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
        assert grad_check(lambda t: tsum(mul(m := ad.tmean(t), m)), x) < 1e-4


def square_sum(t):
    return tsum(mul(t, t))


class TestFusedOpGradCheck:
    """Every input of each fused op against central differences."""

    @staticmethod
    def leaves(seed, c=4, t=6):
        rng = np.random.default_rng(seed)
        f64 = lambda a: Tensor(a, requires_grad=True, dtype=np.float64)
        return dict(
            x=f64(rng.standard_normal((c, 2, t)) + 0.5),  # [C, B, T]
            gain=f64(rng.standard_normal((c, 1))),
            beta=f64(rng.standard_normal((c, 1))),
        )

    @pytest.mark.parametrize("seed", range(3), ids=lambda seed: f"cLN-{seed}")
    def test_layer_norm_stats(self, seed):
        x = self.leaves(seed)["x"]
        assert grad_check(lambda t: square_sum(reference_layer_norm_stats(t)), x) < 1e-4

    @pytest.mark.parametrize("seed", range(3), ids=lambda seed: f"cLN-{seed}")
    def test_normalize(self, seed):
        v = self.leaves(seed)
        x, gain, beta = v["x"], v["gain"], v["beta"]
        stats = Tensor(reference_layer_norm_stats(x).data.copy(), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: square_sum(reference_normalize(t, stats, gain, beta)), x) < 1e-4
        assert grad_check(lambda t: square_sum(reference_normalize(x, t, gain, beta)), stats) < 1e-4
        assert grad_check(lambda t: square_sum(reference_normalize(x, stats, t, beta)), gain) < 1e-4
        assert grad_check(lambda t: square_sum(reference_normalize(x, stats, gain, t)), beta) < 1e-4

    @pytest.mark.parametrize("seed", range(3), ids=lambda seed: f"cLN-{seed}")
    def test_cumulative_layer_norm(self, seed):
        v = self.leaves(seed)
        x, gain, beta = v["x"], v["gain"], v["beta"]
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(t, gain, beta)), x) < 1e-4
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(x, t, beta)), gain) < 1e-4
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(x, gain, t)), beta) < 1e-4

    @pytest.mark.parametrize("seed", range(3), ids=lambda seed: f"cLN-{seed}")
    @pytest.mark.parametrize("slope", [0.25, 1.5])
    def test_cumulative_layer_norm_with_prelu(self, seed, slope):
        v = self.leaves(seed)
        x, gain, beta = v["x"], v["gain"], v["beta"]
        alpha = Tensor([slope], requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(t, gain, beta, alpha)), x) < 1e-4
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(x, t, beta, alpha)), gain) < 1e-4
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(x, gain, t, alpha)), beta) < 1e-4
        assert grad_check(lambda t: square_sum(cumulative_layer_norm(x, gain, beta, t)), alpha) < 1e-4

    # a 3-tap kernel spans 2*dilation steps: less than T, T exactly, and more than T
    @pytest.mark.parametrize("t,dilation", [(7, 1), (7, 2), (7, 3), (4, 2), (3, 4), (1, 2)])
    def test_causal_depthwise_dilation(self, t, dilation):
        rng = np.random.default_rng(t + dilation)
        x = Tensor(rng.standard_normal((3, 2, t)), requires_grad=True, dtype=np.float64)  # [C, B, T]
        w = Tensor(rng.standard_normal((3, 1, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
        kw = dict(dilation=dilation, groups=3)
        out = conv1d(x, w, b, **kw)
        for i in range(2):
            want = naive_conv1d(x.data[:, i], w.data, b.data, dilation, 3, (2 * dilation, 0))
            np.testing.assert_allclose(out.data[:, i], want, atol=1e-12)
        assert grad_check(lambda t: square_sum(conv1d(t, w, b, **kw)), x) < 1e-4
        assert grad_check(lambda t: square_sum(conv1d(x, t, b, **kw)), w) < 1e-4
        assert grad_check(lambda t: square_sum(conv1d(x, w, t, **kw)), b) < 1e-4

    def test_prelu_gradient_at_zero_is_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True, dtype=np.float64)
        alpha = Tensor([0.25], requires_grad=True, dtype=np.float64)
        backward(tsum(prelu(x, alpha)))
        np.testing.assert_array_equal(x.grad, [0.25, 0.0, 1.0])
        np.testing.assert_array_equal(alpha.grad, [-1.0])


def weighted_sum(out, r):
    """sum(out * r) for a fixed array r: the gradient reaching ``out`` is exactly r."""
    return tsum(mul(out, Tensor(r, dtype=out.dtype)))


class TestChannelMajorBatches:
    """A [C, B, T] batch is B independent [C, T] windows: slice [:, b] of each op is the op on window b.

    Checked bit for bit, for the output and for the gradient in every
    batched input, with the same output weights per window.
    """

    C, B, T = 6, 3, 11

    @staticmethod
    def run(op, inputs, r):
        """[output, gradient of each input] of op(**inputs) under the output weights r."""
        leaves = {name: Tensor(a, requires_grad=True) for name, a in inputs.items()}
        out = op(**leaves)
        backward(weighted_sum(out, r))
        return [out.data] + [leaves[name].grad for name in inputs]

    def check(self, op, **inputs):
        """op(x, **inputs) on a random [C, B, T] x, batched against per window; inputs are batched on axis 1 too."""
        rng = np.random.default_rng(0)
        inputs = dict(x=rng.standard_normal((self.C, self.B, self.T)).astype(np.float32), **inputs)
        r = rng.standard_normal(op(**{n: Tensor(a) for n, a in inputs.items()}).shape).astype(np.float32)
        batch = self.run(op, inputs, r)
        for b in range(self.B):
            window = self.run(op, {n: a[:, b].copy() for n, a in inputs.items()}, r[:, b].copy())
            for got, want in zip(batch, window):
                assert np.array_equal(got[:, b], want), f"window {b}"

    def weights(self, *shape, seed=1):
        return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))

    def test_conv1d_pointwise(self):
        w, b = self.weights(4, self.C, 1), self.weights(4)
        self.check(lambda x: conv1d(x, w, b))

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_conv1d_depthwise_padded(self, dilation):
        w, b = self.weights(self.C, 1, 3), self.weights(self.C)
        self.check(lambda x: conv1d(x, w, b, dilation=dilation, groups=self.C))

    def test_cumulative_layer_norm(self):
        gain, bias = self.weights(self.C, 1, seed=2), self.weights(self.C, 1, seed=3)
        self.check(lambda x: cumulative_layer_norm(x, gain, bias))

    def test_layer_norm_stats_cln(self):
        self.check(lambda x: reference_layer_norm_stats(x))

    def test_normalize(self):
        gain, bias = self.weights(self.C, 1, seed=2), self.weights(self.C, 1, seed=3)
        rng = np.random.default_rng(4)
        mu = rng.standard_normal((1, self.B, self.T))
        r = rng.uniform(0.5, 2.0, (1, self.B, self.T))
        stats = np.concatenate([mu, r]).astype(np.float32)
        self.check(lambda x, stats: reference_normalize(x, stats, gain, bias), stats=stats)

    def test_matmul(self):
        a = self.weights(5, self.C)
        self.check(lambda x: ad.matmul(a, x))


class CountingArray(np.ndarray):
    """An ndarray that counts the ``@`` products it takes part in."""

    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        CountingArray.products += 1
        return np.asarray(other) @ np.asarray(self)


class TestMatmulBackward:
    """matmul's backward runs one GEMM per operand that requires grad, so the encoder's frames cost none."""

    @pytest.mark.parametrize("a_grad,b_grad", [(True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("b_shape", [(6, 11), (6, 3, 11)], ids=["2d", "batched"])
    def test_one_gemm_per_gradient(self, monkeypatch, a_grad, b_grad, b_shape):
        rng = np.random.default_rng(0)
        a_data, b_data = rng.standard_normal((5, 6)), rng.standard_normal(b_shape)
        r = rng.standard_normal((5,) + b_shape[1:])
        a, b = Tensor(a_data, requires_grad=a_grad), Tensor(b_data, requires_grad=b_grad)
        a.data, b.data = a_data.view(CountingArray), b_data.view(CountingArray)
        out = ad.matmul(a, b)
        monkeypatch.setattr(CountingArray, "products", 0)
        backward(weighted_sum(out, r))
        assert CountingArray.products == a_grad + b_grad
        r2 = r.reshape(5, -1)
        if a_grad:
            assert np.array_equal(a.grad, r2 @ b_data.reshape(6, -1).T)
        if b_grad:
            assert np.array_equal(b.grad, (a_data.T @ r2).reshape(b_shape))


def strided_taps(a, left, right, k, dilation, t_out):
    """[.., t_out, k] strided view of a zero-padded by (left, right), steps t + kk*dilation: the oracle layout."""
    padded = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(left, right)])
    s = padded.strides
    return np.lib.stride_tricks.as_strided(padded, a.shape[:-1] + (t_out, k), s + (s[-1] * dilation,))


class TestDilationOneTaps:
    """At dilation 1 the taps are copied into a contiguous block; the einsums give the strided view's bits."""

    # causal: padded by the span k-1 = 2 on the left, over T longer than, equal to and shorter than the span
    @pytest.mark.parametrize("t", [13, 2, 1], ids=["causal", "causal-span-equals-T", "causal-span-exceeds-T"])
    def test_matches_strided_view_einsum(self, t):
        rng = np.random.default_rng(t)
        c, b, k = 5, 2, 3
        span = k - 1
        x = Tensor(rng.standard_normal((c, b, t)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((c, 1, k)).astype(np.float32), requires_grad=True)
        bias = rng.standard_normal(c).astype(np.float32)
        out = conv1d(x, w, Tensor(bias), groups=c)
        g = rng.standard_normal(out.shape).astype(np.float32)
        backward(weighted_sum(out, g))
        want_out = np.einsum("cbtk,ck->cbt", strided_taps(x.data, span, 0, k, 1, t), w.data[:, 0])
        want_out += bias[:, None, None]
        want_dw = np.einsum("cbt,cbtk->ck", g, strided_taps(x.data, span, 0, k, 1, t))
        gpad = strided_taps(g, 0, span, k, 1, t)
        want_dx = np.einsum("cbtk,ck->cbt", gpad, w.data[:, 0, ::-1])
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(w.grad[:, 0], want_dw)
        assert np.array_equal(x.grad, want_dx)


class Relay:
    """An ``ad.Carry`` for one op run on a row's time chunks in order: each chunk takes what the one before posted."""

    def __init__(self):
        self.state = None

    def take(self):
        return self.state

    def post(self, state):
        self.state = state


def chunked(op, x, edges):
    """op(chunk, carry) over x's time chunks between edges, joined along time."""
    relay = Relay()
    return np.concatenate([op(Tensor(x[..., lo:hi]), relay).data for lo, hi in zip(edges, edges[1:])], axis=-1)


# chunk edges over 100 steps, each chunk but the last a whole number of 16-step
# SIMD blocks (see model._CHUNK_ALIGN); some narrower than the 32-step span of
# a 3-tap conv at dilation 16
EDGES = [[0, 100], [0, 64, 100], [0, 16, 32, 64, 80, 100]]


class TestCarries:
    """A frozen row run in time chunks with carries gives the whole row's outputs, bit for bit."""

    @pytest.mark.parametrize("edges", EDGES, ids=["whole", "two", "ragged"])
    @pytest.mark.parametrize("dilation", [1, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_depthwise_conv(self, edges, dilation, dtype):
        rng = np.random.default_rng(dilation)
        x = rng.standard_normal((6, 100)).astype(dtype)
        w, bias = Tensor(rng.standard_normal((6, 1, 3)), dtype=dtype), Tensor(rng.standard_normal(6), dtype=dtype)
        want = conv1d(Tensor(x), w, bias, dilation, 6).data
        got = chunked(lambda t, relay: conv1d(t, w, bias, dilation, 6, carry=relay), x, edges)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edges", EDGES, ids=["whole", "two", "ragged"])
    @pytest.mark.parametrize("slope", [None, 0.25, 1.7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_cumulative_layer_norm(self, edges, slope, dtype):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((24, 100)) * np.geomspace(1e-3, 1e3, 100)).astype(dtype)  # the prefixes span magnitudes
        gain, bias = Tensor(rng.uniform(0.5, 1.5, (24, 1)), dtype=dtype), Tensor(rng.standard_normal((24, 1)), dtype=dtype)
        alpha = None if slope is None else Tensor([slope], dtype=dtype)
        want = cumulative_layer_norm(Tensor(x), gain, bias, alpha).data
        got = chunked(lambda t, relay: cumulative_layer_norm(t, gain, bias, alpha, carry=relay), x, edges)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_only_frozen_inputs_take_a_carry(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        w, bias = Tensor(np.ones((4, 1, 3))), Tensor(np.zeros(4))
        with pytest.raises(GraphError, match="conv1d runs a carry on frozen inputs only"):
            conv1d(x, w, bias, groups=4, carry=Relay())
        with pytest.raises(GraphError, match="cumulative_layer_norm runs a carry on frozen inputs only"):
            cumulative_layer_norm(x, Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1))), carry=Relay())

    def test_a_pointwise_conv_takes_no_carry(self):
        x, w, bias = Tensor(np.ones((4, 5))), Tensor(np.ones((3, 4, 1))), Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match="depthwise conv only"):
            conv1d(x, w, bias, carry=Relay())


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
        backward(tsum(x))
        assert x.grad.shape == x.shape

    def test_nan_inf_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteError):
                Tensor([[1.0, bad]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 499, 999], ids=["first", "middle", "last"])
    def test_one_non_finite_entry_rejected_anywhere(self, dtype, bad, where):
        a = np.ones((10, 100), dtype)
        a.reshape(-1)[where] = bad
        with pytest.raises(NonFiniteError):
            Tensor(a, dtype=dtype)

    def test_finite_entries_whose_sum_overflows_accepted(self):
        a = np.array([3e38, 3e38], np.float32)  # their float32 sum is Inf
        assert Tensor(a).data is a

    def test_finiteness_check_allocates_no_mask(self):
        a = np.ones(1 << 22, np.float32)  # 4 MB of entries: an elementwise mask would take 4 MB
        tracemalloc.start()
        try:
            t = Tensor(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.data is a and peak < 1 << 20

    def test_float64_preserved_float32_default(self):
        assert Tensor([1.0]).dtype == np.float32
        assert Tensor(np.array([1.0])).dtype == np.float64
        assert Tensor([1, 2]).dtype == np.float32
