"""Dense-tensor math with reverse-mode differentiation.

Just enough for a 1-D convolutional voice detector: pointwise and dilated
depthwise conv, activations, layer norms, linear, losses, Adam, and a
finite-difference gradient checker. Arrays are numpy; float32 is the
working precision, float64 is used when checking gradients.

The network's layer norms are two fused ops, each with a hand-written
backward: ``layer_norm_stats`` computes a cLN (cumulative, as in
Conv-TasNet) or gLN's per-step mean and inverse deviation, and
``normalize`` applies them. ``cumulative_layer_norm`` and
``global_layer_norm`` are that pair.

An op records its graph exactly when one of its inputs has
``requires_grad``; there is no process-wide switch. A frozen parameter
set (tensors without ``requires_grad``, as ``streaming.resolve_model``
makes) therefore builds no graph, and many threads can evaluate it at
once without changing what any other caller's tensors record. Tensors are
treated as immutable values outside an explicit optimizer step; only
``adam_step`` mutates data in place.

``backward`` consumes the graph it walks: each node drops its gradient,
its backward closure and its parents once its backward has run, so the
activations only the graph holds are freed during the pass rather than
after it. Leaf gradients stay; a second ``backward`` through a consumed
graph raises GraphError. Gradients are read-only values that may be
shared: an op may hand the same array to several inputs, and a later
gradient is added out of place, never into an array already handed over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(ValueError):
    """A NaN or Inf value reached an op boundary."""


class GraphError(RuntimeError):
    """The computation graph cannot be traversed (cycle, no scalar root, ...)."""


def _coerce(data, dtype):
    if dtype is not None:
        return np.asarray(data).astype(dtype, copy=False)
    # float64 survives only when handed over explicitly as a numpy array;
    # python scalars/lists land in the float32 working precision
    if isinstance(data, np.ndarray) and data.dtype == np.float64:
        return data
    return np.asarray(data).astype(DEFAULT_DTYPE, copy=False)


class Tensor:
    """A dense real array with an optional gradient slot.

    ``data`` is float32 unless float64 is passed in (or forced via
    ``dtype``). Construction rejects NaN/Inf, which is what enforces
    finiteness at every op boundary: ops only consume and produce
    Tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        a = _coerce(data, dtype)
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("tensor contains NaN or Inf values")
        self.data = a
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(data, parents, backward_fn):
    """Build an op output, wiring the graph when any input requires grad."""
    data = np.asarray(data)
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t``'s gradient: the first is stored as is, later ones are added out of place.

    So gradients are shared, read-only values: no backward writes into an
    array after handing it over, and none writes into its incoming ``g``.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _consumed(g):
    raise GraphError("this part of the graph was already consumed by backward")


def backward(loss: Tensor):
    """Populate grad slots of every leaf reachable from a scalar loss, consuming the graph.

    Traversal is reverse-topological. Once a node's backward has run, the
    node drops its gradient, its backward closure and its parents, so the
    activations only the graph holds are freed as the pass goes. Leaf
    gradients stay. A back edge (cycle), a loss that carries no graph, and
    a loss whose graph an earlier backward consumed raise GraphError.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss is not connected to any tensor that requires grad")
    if loss._backward is _consumed:
        raise GraphError("backward already ran on this loss; its graph is consumed")

    order = []
    state = {}  # id -> 1 visiting, 2 done
    stack = [(loss, iter(loss._parents))]
    state[id(loss)] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            s = state.get(id(parent))
            if s == 1:
                raise GraphError("cycle detected in computation graph")
            if parent._backward is _consumed:
                raise GraphError("the loss depends on a graph that an earlier backward consumed")
            if s is None and parent._parents:
                state[id(parent)] = 1
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
            state.setdefault(id(parent), 2)
        if not advanced:
            stack.pop()
            state[id(node)] = 2
            order.append(node)

    loss.grad = np.ones_like(loss.data)
    del node, it  # the traversal's last references into the graph
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf loss keeps its gradient
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._parents = ()
        node._backward = _consumed


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise / reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, -g)

    return _make(-a.data, (a,), back)


def log(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), back)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; the gradient is zero where the clamp binds."""
    mask = (a.data > lo) & (a.data < hi)

    def back(g):
        _accum(a, g * mask)

    return _make(np.clip(a.data, lo, hi), (a,), back)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    inv = 1.0 / n

    def back(g):
        g = g * inv
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the gradient at exactly 0 is 0."""
    mask = a.data > 0

    def back(g):
        _accum(a, g * mask)

    return _make(np.maximum(a.data, 0), (a,), back)


def prelu(a: Tensor, alpha: Tensor) -> Tensor:
    """x for x >= 0, alpha*x for x < 0. alpha is a learnable scalar tensor.

    Evaluated as max(x, alpha*x) when alpha <= 1 and min(x, alpha*x)
    otherwise: two passes, no mask arrays, and the same bits as x*slope.
    Gradients at exactly x == 0 are 0 in both x and alpha.
    """
    av = alpha.data.reshape(())
    out_data = a.data * av
    (np.maximum if av <= 1 else np.minimum)(out_data, a.data, out=out_data)

    def back(g):
        x = a.data
        _accum(a, g * ((x > 0) + av * (x < 0)))  # dtype-promoting bool arithmetic
        _accum(alpha, np.array([(g * np.minimum(x, 0)).sum()], dtype=alpha.dtype).reshape(alpha.shape))

    return _make(out_data, (a, alpha), back)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def back(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with a 2-D ``a`` and a 2-D or batched 3-D ``b``."""
    if a.ndim != 2 or b.ndim not in (2, 3):
        raise ShapeError(f"matmul supports [m,k] @ [k,n] or [m,k] @ [B,k,n]; got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape[1]} vs {b.shape[-2]}")
    out_data = np.matmul(a.data, b.data)

    def back(g):
        if b.ndim == 2:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
        else:
            m, k = a.shape
            gb = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(m, -1)
            bb = np.ascontiguousarray(b.data.transpose(1, 0, 2)).reshape(k, -1)
            _accum(a, gb @ bb.T)
            _accum(b, np.matmul(a.data.T, g))

    return _make(out_data, (a, b), back)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """weight @ x + bias for a vector x, batched as rows when x is 2-D."""
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D [out,in], got {weight.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear input dimension {x.shape[-1]} does not match weight in-dimension {weight.shape[1]}"
        )
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match out-dimension {weight.shape[0]}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data

    def back(g):
        if x.ndim == 1:
            _accum(weight, np.outer(g, x.data))
            _accum(x, g @ weight.data)
            if bias is not None:
                _accum(bias, g)
        else:
            _accum(weight, g.T @ x.data)
            _accum(x, g @ weight.data)
            if bias is not None:
                _accum(bias, g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, back)


# ---------------------------------------------------------------------------
# convolution


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    groups: int = 1,
    padding: tuple[int, int] = (0, 0),
) -> Tensor:
    """Dilated 1-D convolution (stride 1) in the two forms the network uses.

    x is [C_in, T] or [B, C_in, T]; weight is [C_out, C_in/groups, K];
    padding is (left, right) zeros on the time axis. Pointwise is groups=1
    with K=1; depthwise is groups=C_in=C_out with any K. Any other grouping
    raises ShapeError. Output length is T + left + right - (K-1)*dilation.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim not in (2, 3):
        raise ShapeError(f"conv1d input must be [C,T] or [B,C,T], got {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d weight must be [C_out, C_in/groups, K], got {weight.shape}")
    dilation = int(dilation)
    groups = int(groups)
    if dilation < 1:
        raise ShapeError(f"dilation must be positive, got {dilation}")
    if groups < 1:
        raise ShapeError(f"groups must be positive, got {groups}")

    c_in, t_in = x.shape[-2], x.shape[-1]
    c_out, cin_g, k = weight.shape
    if c_in % groups:
        raise ShapeError(f"input channels {c_in} not divisible by groups {groups}")
    if cin_g != c_in // groups:
        raise ShapeError(
            f"weight expects {cin_g} channels per group but input provides {c_in // groups}"
        )
    pointwise = groups == 1 and k == 1
    if not pointwise and not groups == c_in == c_out:
        raise ShapeError(
            f"conv1d runs pointwise (groups=1, K=1) or depthwise (groups=C_in=C_out) kernels; "
            f"got groups={groups}, {c_in} input channels and weight {weight.shape}"
        )
    left, right = int(padding[0]), int(padding[1])
    if left < 0 or right < 0:
        raise ShapeError(f"padding must be non-negative, got {padding}")
    t_out = t_in + left + right - (k - 1) * dilation
    if t_out < 1:
        raise ShapeError(
            f"input length {t_in} with padding {padding} is too short for "
            f"kernel {k} at dilation {dilation} (needs >= {1 + (k - 1) * dilation})"
        )
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} does not match output channels {c_out}")

    batched = x.ndim == 3
    xd = x.data if batched else x.data[None]
    w = weight.data

    if pointwise:
        out = np.matmul(w[:, :, 0], xd)
        if left or right:
            out = np.pad(out, ((0, 0), (0, 0), (left, right)))
    else:
        # one einsum over a [B, C, T_out, K] window view of the padded input:
        # ~3x faster than accumulating K broadcast products into output slices
        out = np.einsum("bctk,ck->bct", _tap_view(xd, left, right, k, dilation, t_out), w[:, 0, :])
    if bias is not None:
        out += bias.data.reshape(1, -1, 1)

    def back(g):
        gb = g if batched else g[None]
        if bias is not None:
            _accum(bias, gb.sum(axis=(0, 2)))
        if pointwise:
            gy = gb[:, :, left : left + t_in]
            dw = np.matmul(gy, xd.transpose(0, 2, 1)).sum(axis=0)[:, :, None]  # no transposed copies
            dx = np.matmul(w[:, :, 0].T, gy)
        else:
            dw = np.einsum("bct,bctk->ck", gb, _tap_view(xd, left, right, k, dilation, t_out))[:, None, :]
            # input step s collects tap kk of output step s + left - kk*dilation
            span = (k - 1) * dilation
            dx = np.einsum("bctk,ck->bct", _tap_view(gb, span - left, span - right, k, dilation, t_in), w[:, 0, ::-1])
        _accum(x, dx if batched else dx[0])
        _accum(weight, dw.astype(w.dtype, copy=False))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out if batched else out[0], parents, back)


def _tap_view(a: np.ndarray, left: int, right: int, k: int, dilation: int, t_out: int) -> np.ndarray:
    """[B, C, t_out, k] view whose [.., t, kk] entry is step t + kk*dilation of ``a`` zero-padded by (left, right).

    A negative pad crops that many steps instead.
    """
    a = a[:, :, max(0, -left) : a.shape[-1] - max(0, -right)]
    left, right = max(0, left), max(0, right)
    padded = a
    if left or right:
        padded = np.zeros(a.shape[:2] + (left + a.shape[-1] + right,), dtype=a.dtype)
        padded[:, :, left : left + a.shape[-1]] = a
    if padded.shape[-1] < t_out + (k - 1) * dilation:  # as_strided does not bounds-check
        raise ShapeError(f"{padded.shape[-1]} padded steps cannot hold {t_out} outputs of a {k}-tap kernel")
    s = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, shape=a.shape[:2] + (t_out, k), strides=(s[0], s[1], s[2], s[2] * dilation), writeable=False
    )


# ---------------------------------------------------------------------------
# normalizations


def layer_norm_stats(x: Tensor, cumulative: bool, eps: float = 1e-8) -> Tensor:
    """Per-step mean and inverse deviation of a layer norm, as one [2, T] or [B, 2, T] tensor.

    Row 0 is mu_t and row 1 is r_t = 1/sqrt(var_t + eps), both taken
    jointly over channels and per batch item. cumulative=True (cLN) takes
    them over the time prefix 1..t, so column t depends only on input
    columns 1..t; otherwise (gLN) over all time steps, repeated in every
    column. ``normalize`` applies them.
    """
    _check_norm_shapes(x)
    c, t = x.shape[-2], x.shape[-1]
    xd = x.data
    if cumulative:
        counts = np.arange(1, t + 1, dtype=xd.dtype) * c
        mu = np.cumsum(xd.sum(axis=-2, keepdims=True), axis=-1) / counts
        sq = np.einsum("...ct,...ct->...t", xd, xd)[..., None, :]  # no [C, T] temporary
        var = np.cumsum(sq, axis=-1) / counts - mu * mu
    else:
        counts = c * t
        mu = xd.mean(axis=(-2, -1), keepdims=True)
        d = xd - mu
        var = (d * d).mean(axis=(-2, -1), keepdims=True)
    live = var > 0  # clamp mask; the gradient through var is zero where it binds
    r = 1.0 / np.sqrt(np.maximum(var, 0.0) + np.asarray(eps, dtype=xd.dtype))
    column = xd.shape[:-2] + (1, t)
    out_data = np.concatenate([np.broadcast_to(mu, column), np.broadcast_to(r, column)], axis=-2)

    def back(g):
        g_mu, g_r = g[..., 0:1, :], g[..., 1:2, :]
        g_var = -0.5 * g_r * (r * r * r) * live
        if cumulative:
            # mu_t = S_t/n_t and var_t = Q_t/n_t - mu_t^2 over the prefix sums S, Q of x and x^2
            g_s = _suffix_sum((g_mu - 2.0 * mu * g_var) / counts)
            g_q = _suffix_sum(g_var / counts)
            _accum(x, g_s + 2.0 * xd * g_q)
        else:
            g_mu = g_mu.sum(axis=-1, keepdims=True)
            g_var = g_var.sum(axis=-1, keepdims=True)
            _accum(x, (g_mu + 2.0 * (xd - mu) * g_var) / counts)

    return _make(out_data, (x,), back)


def _suffix_sum(a):
    return np.flip(np.cumsum(np.flip(a, -1), axis=-1), -1)


def normalize(x: Tensor, stats: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """gain * (x - mu_t) * r_t + bias, with (mu, r) from ``layer_norm_stats(x, ...)``.

    x is [C, T] or [B, C, T]; gain/bias are [C, 1] and apply per channel.
    """
    _check_norm_shapes(x, gain, bias)
    want = x.shape[:-2] + (2, x.shape[-1])
    if stats.shape != want:
        raise ShapeError(f"layer norm statistics must have shape {want}, got {stats.shape}")
    mu, r = stats.data[..., 0:1, :], stats.data[..., 1:2, :]
    out_data = x.data - mu
    out_data *= r
    out_data *= gain.data
    out_data += bias.data

    def back(g):
        xhat = x.data - mu
        xhat *= r
        g3, xhat3 = g.reshape((-1,) + g.shape[-2:]), xhat.reshape((-1,) + g.shape[-2:])
        _accum(gain, np.einsum("bct,bct->c", g3, xhat3)[:, None])
        _accum(bias, np.einsum("bct->c", g3)[:, None])
        h = g * gain.data
        # d/dr of sum_c h*(x - mu)*r is sum_c h*(x - mu) = sum_c h*xhat / r
        g_r = np.einsum("...ct,...ct->...t", h, xhat)[..., None, :] / r
        h *= r  # now the gradient in x
        _accum(stats, np.concatenate([-h.sum(axis=-2, keepdims=True), g_r], axis=-2))
        _accum(x, h)

    return _make(out_data, (x, stats, gain, bias), back)


def global_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize jointly over channels and all time steps (gLN).

    x is [C, T] or [B, C, T]; gain/bias are [C, 1] and apply per channel.
    Statistics are per batch item, never across the batch.
    """
    return normalize(x, layer_norm_stats(x, cumulative=False, eps=eps), gain, bias)


def cumulative_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize over channels and the time prefix 1..t at each step t (cLN).

    Column t of the output only depends on columns 1..t of the input,
    which is what makes the model's "window" context causal.
    """
    return normalize(x, layer_norm_stats(x, cumulative=True, eps=eps), gain, bias)


def _check_norm_shapes(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None):
    if x.ndim not in (2, 3):
        raise ShapeError(f"layer norm input must be [C,T] or [B,C,T], got {x.shape}")
    c = x.shape[-2]
    for name, t in (("gain", gain), ("bias", bias)):
        if t is not None and t.shape != (c, 1):
            raise ShapeError(f"layer norm {name} must have shape ({c}, 1), got {t.shape}")
    if x.shape[-1] < 1:
        raise ShapeError("layer norm needs at least one time step")


def _const_like(t: Tensor, value: float) -> Tensor:
    return Tensor(np.asarray(value, dtype=t.dtype), dtype=t.dtype)


# ---------------------------------------------------------------------------
# loss


def binary_cross_entropy(p: Tensor, y, rows: int | None = None) -> Tensor:
    """Summed per-class binary cross-entropy against {0,1} targets.

    p holds probabilities; they are clamped to [1e-7, 1 - 1e-7] before the
    logs. A [C] input yields the class sum; a [B, C] batch yields the sum
    of the per-row class sums divided by ``rows`` (default B, the mean over
    rows). A micro-batch of a larger batch passes that batch's row count,
    so the losses, and the gradients, of its micro-batches add up to the
    whole batch's.
    """
    y = np.asarray(y, dtype=p.dtype)
    if y.shape != p.shape:
        raise ShapeError(f"targets shape {y.shape} does not match predictions {p.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("binary cross-entropy targets must be exactly 0 or 1")
    pc = clip(p, 1e-7, 1.0 - 1e-7)
    yt = Tensor(y, dtype=p.dtype)
    one = _const_like(p, 1.0)
    per = neg(add(mul(yt, log(pc)), mul(sub(one, yt), log(sub(one, pc)))))
    total = tsum(per)
    if p.ndim == 2:
        return mul(total, _const_like(total, 1.0 / (rows or p.shape[0])))
    return total


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamState:
    """Per-parameter Adam moment buffers plus the shared step counter."""

    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params, beta1=0.9, beta2=0.999, epsilon=1e-8):
        return cls(
            first_moment=[np.zeros_like(p.data) for p in params],
            second_moment=[np.zeros_like(p.data) for p in params],
            step_count=0,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place on the parameter tensors."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params, grads, and optimizer state must have matching lengths")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient {i} shape {g.shape} does not match parameter {p.data.shape}")
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def exp_lr_schedule(epoch: int, total_epochs: int, lr_start: float, lr_end: float) -> float:
    """Geometric interpolation from lr_start (epoch 0) to lr_end (last epoch)."""
    if total_epochs < 2:
        return lr_start
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr_start * (lr_end / lr_start) ** (epoch / (total_epochs - 1))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, x: Tensor, epsilon: float = 1e-4) -> float:
    """Compare reverse-mode gradients of scalar f(x) against central differences.

    Returns the max relative error over the entries of x. Build f's tensors
    (x and any captured parameters) in float64 so the 1e-4 tolerance is
    meaningful; x is perturbed in place during the check and restored.
    """
    x.grad = None
    out = f(x)
    if out.size != 1:
        raise ShapeError(f"grad_check needs a scalar function, f returned shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.empty(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        fp = float(f(x).data)
        flat[i] = orig - epsilon
        fm = float(f(x).data)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * epsilon)
    numeric = numeric.reshape(x.shape)

    a = analytic.astype(np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
    return float((np.abs(a - numeric) / denom).max())
