"""Dense-tensor math with reverse-mode differentiation.

Just enough for a 1-D convolutional voice detector, and no more: ``add``,
``tmean``, ``concat`` and ``transpose``; ``relu``, ``prelu`` and
``sigmoid``; ``matmul``, ``linear`` and ``conv1d`` (pointwise and causal
dilated depthwise); the cumulative layer norm, optionally of a PReLU;
``binary_cross_entropy``; and Adam. Arrays are numpy; float32 is the
working precision, and float64 is kept when handed over explicitly.
A Tensor checks its values for NaN and Inf on construction, with no
mask as large as the array.

Elementwise ops take operands of a single shape and do not broadcast;
every op takes Tensors. The network's layer norm is the cumulative one
of causal Conv-TasNet (cLN), ``cumulative_layer_norm``: one op with a
hand-written backward, which takes each step's mean and inverse deviation
over the channels and the time prefix up to it and applies them. Given a
PReLU slope it applies PReLU first, into the buffer it then normalizes
in place, and its backward rebuilds the activation from the PReLU input:
a block's PReLU output is never a tensor that a training graph holds
until backward. The PReLU arithmetic is written once, in ``_prelu``,
which the standalone ``prelu`` op runs too. The loss,
``binary_cross_entropy``, is one op with a hand-written backward too.

The two causal ops, the cLN and the depthwise conv, also run a frozen input
as contiguous time chunks: given a ``Carry``, an op takes its state at the
end of the chunk before and posts its own for the chunk after, so the
chunks' outputs are the whole input's.

Batches are channel-major: a batch of B windows of [C, T] activations is
one [C, B, T] array, not [B, C, T]. A 1x1 conv then multiplies its weight
by a single [C, B*T] matrix, one GEMM in the forward and in each gradient
rather than B small ones, and every per-channel broadcast (gain, bias,
conv bias) runs over C rows of B*T steps rather than B*C rows of T, where
numpy's per-row overhead would outweigh the arithmetic at T ~ 600. One
window is the same [C, T] array either way, so its arithmetic does not
depend on the layout.

An op records its graph exactly when one of its inputs has
``requires_grad``; there is no process-wide switch. A frozen parameter
set (tensors without ``requires_grad``, as ``streaming.resolve_model``
makes) therefore builds no graph, and many threads can evaluate it at
once without changing what any other caller's tensors record. A tensor's
``data`` is a value: no op writes into it, and ``adam_step`` binds each
parameter to a new array rather than updating the old one in place, so a
model, its snapshots and its checkpoints can share one copy of the
weights.

``backward`` consumes the graph it walks: each node drops its gradient,
its backward closure and its parents once its backward has run, so the
activations only the graph holds are freed during the pass rather than
after it. Leaf gradients stay; a second ``backward`` through a consumed
graph raises GraphError. Gradients are read-only values that may be
shared: an op may hand the same array to several inputs, and a later
gradient is added out of place, never into an array already handed over.

A graph may also drop an activation before backward, where backward can
compute it again cheaply. Only a ``cumulative_layer_norm`` output in a
training graph can be dropped: it carries a rebuild that repeats the
forward's float operations (PReLU, then xhat = (y - mu) * r, then
xhat * gain + bias) over the norm's input, which the graph holds anyway,
and the mu and r that the op keeps. ``release(t)`` drops such a tensor's
array once its forward readers have run, and leaves any other tensor
alone. A backward that reads an input's array (a conv's weight gradient)
reads it through ``_value``, which rebuilds a released array without
keeping it, and the norm's own backward then takes over the y and xhat
the rebuild made. Outputs and gradients keep their bits. A conv's
output is not released: its rebuild would run the conv again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

DEFAULT_DTYPE = np.float32
# added to the layer norm's variance: the floor under its deviation, so a
# constant input normalizes to zero rather than dividing by zero
NORM_EPS = 1e-8


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


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, with no mask as large as ``a``.

    The max propagates a NaN, and an Inf of either sign is the max or the
    min, so both are finite exactly when every entry is. The two
    reductions allocate nothing proportional to ``a``, and unlike a sum
    they cannot overflow on finite entries.
    """
    return a.size == 0 or bool(np.isfinite(a.max()) and np.isfinite(a.min()))


class Tensor:
    """A dense real array with an optional gradient slot.

    ``data`` is float32 unless float64 is passed in (or forced via
    ``dtype``). Construction rejects NaN/Inf, which is what enforces
    finiteness at every op boundary: ops only consume and produce
    Tensors. ``data`` is None once ``release`` has dropped it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_rebuild")

    def __init__(self, data, requires_grad=False, dtype=None):
        a = _coerce(data, dtype)
        if not _all_finite(a):
            raise NonFiniteError("tensor contains NaN or Inf values")
        self.data = a
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._rebuild: _Rebuild | None = None

    # a released tensor (``data`` None) keeps its shape and dtype in its rebuild

    @property
    def shape(self):
        return self.data.shape if self.data is not None else self._rebuild.shape

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def dtype(self):
        return self.data.dtype if self.data is not None else self._rebuild.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Rebuild:
    """How backward computes a graph tensor's array again once ``release`` dropped it.

    ``fn()`` returns a fresh array of ``shape`` and ``dtype``, with the
    bits the forward computed. It must not reference its tensor: the tensor
    references it, and a cycle would leave the graph to the cyclic GC.
    """

    __slots__ = ("fn", "shape", "dtype")

    def __init__(self, fn, like: np.ndarray):
        self.fn, self.shape, self.dtype = fn, like.shape, like.dtype


def _make(data, parents, backward_fn, rebuild=None):
    """Build an op output, wiring the graph, and its ``rebuild`` if given, when any input requires grad."""
    data = np.asarray(data)
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
        if rebuild is not None:
            out._rebuild = _Rebuild(rebuild, data)
    return out


def release(t: Tensor) -> None:
    """Drop t's array when backward can rebuild it (a cLN output in a training graph); else do nothing.

    Call it once every forward reader of the array has run. A backward
    that reads the array rebuilds it (``_value``); ``shape``, ``ndim``,
    ``size`` and ``dtype`` stay.
    """
    if t._rebuild is not None:
        t.data = None


def _value(t: Tensor) -> np.ndarray:
    """t's array, for a backward: rebuilt, and not kept, when ``release`` dropped it."""
    return t.data if t.data is not None else t._rebuild.fn()


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t``'s gradient: the first is stored as is, later ones are added out of place.

    So gradients are shared, read-only values: no backward writes into an
    array after handing it over, and none writes into its incoming ``g``.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _rows(a: np.ndarray) -> np.ndarray:
    """The [C, B*T] rows of a [C, T] or channel-major [C, B, T] array; a view when ``a`` is contiguous."""
    return a.reshape(a.shape[0], -1)


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
    if a.shape != b.shape:
        raise ShapeError(f"add takes two tensors of one shape, got {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), back)


def tmean(a: Tensor, keepdims: bool = False) -> Tensor:
    """The mean over the last (time) axis; the graph keeps only a's shape."""
    shape = a.shape
    inv = 1.0 / shape[-1]

    def back(g):
        g = g * inv
        if not keepdims:
            g = np.expand_dims(g, -1)
        _accum(a, np.broadcast_to(g, shape))

    return _make(a.data.mean(axis=-1, keepdims=keepdims), (a,), back)


def concat(tensors) -> Tensor:
    """The tensors stacked along axis 0."""
    splits = np.cumsum([t.shape[0] for t in tensors])[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors]), tensors, back)


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-D tensor, as a C-contiguous copy."""
    if a.ndim != 2:
        raise ShapeError(f"transpose takes a 2-D tensor, got shape {a.shape}")

    def back(g):
        _accum(a, g.T)

    return _make(np.ascontiguousarray(a.data.T), (a,), back)


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the gradient at exactly 0 is 0."""
    def back(g):
        _accum(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0), (a,), back)


def prelu(a: Tensor, alpha: Tensor) -> Tensor:
    """x for x >= 0, alpha*x for x < 0. alpha is a learnable scalar tensor.

    The network applies PReLU inside ``cumulative_layer_norm`` (its
    ``alpha``), so the activation never becomes a tensor. This op stays
    because two callers need the activation as a tensor: ``bench/tracer.py``
    wraps ``prelu`` and ``cumulative_layer_norm`` by name, and the tests'
    identity-norm fake (``tests/test_model.without_norms``) keeps each
    block's PReLU while it removes the norms. Both ops run the arithmetic
    of ``_prelu``.
    """
    values, back = _prelu(a, alpha)
    return _make(values(), (a, alpha), back)


def _prelu(x: Tensor, alpha: Tensor):
    """PReLU of x at alpha's slope, as (values, back): PReLU's one forward and one backward.

    ``values()`` evaluates max(x, alpha*x) when alpha <= 1 and min(x,
    alpha*x) otherwise into a fresh array: two passes, no mask arrays, and
    the same bits as x*slope. ``back(g)`` takes the activation's gradient
    g to x and alpha; both are 0 at exactly x == 0. Each reads the x and
    the slope of this call, so ``values()`` can rebuild in a backward the
    activation a forward did not keep.
    """
    xd, av = x.data, alpha.data.reshape(())

    def values():
        out = xd * av
        (np.maximum if av <= 1 else np.minimum)(out, xd, out=out)
        return out

    def back(g):
        _accum(x, g * ((xd > 0) + av * (xd < 0)))  # dtype-promoting bool arithmetic
        _accum(alpha, np.array([(g * np.minimum(xd, 0)).sum()], dtype=alpha.dtype).reshape(alpha.shape))

    return values, back


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
    """a @ b for a 2-D ``a`` [m, k] and a ``b`` of [k, n] or channel-major [k, B, n].

    A batched ``b`` is one [k, B*n] matrix, so the product, and each
    gradient, is one GEMM; the output is [m, n] or [m, B, n].
    """
    if a.ndim != 2 or b.ndim not in (2, 3):
        raise ShapeError(f"matmul supports [m,k] @ [k,n] or [m,k] @ [k,B,n]; got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape[1]} vs {b.shape[0]}")
    b2 = _rows(b.data)
    out_data = (a.data @ b2).reshape(a.shape[:1] + b.shape[1:])

    def back(g):
        g2 = _rows(g)
        if a.requires_grad:
            _accum(a, g2 @ b2.T)
        if b.requires_grad:  # the encoder's audio frames never do
            _accum(b, (a.data.T @ g2).reshape(b.shape))

    return _make(out_data, (a, b), back)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """weight @ x + bias for a vector x, batched as rows when x is 2-D."""
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D [out,in], got {weight.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear input dimension {x.shape[-1]} does not match weight in-dimension {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match out-dimension {weight.shape[0]}")
    out_data = x.data @ weight.data.T + bias.data

    def back(g):
        g2 = g.reshape(-1, g.shape[-1])  # one vector is one row: a K=1 GEMM gives the outer product's bits
        _accum(weight, g2.T @ x.data.reshape(g2.shape[0], -1))
        _accum(x, g @ weight.data)
        _accum(bias, g2.sum(axis=0))

    return _make(out_data, (x, weight, bias), back)


# ---------------------------------------------------------------------------
# time chunks


class Carry(Protocol):
    """The state a causal op hands from one time chunk of a frozen input to the next.

    The causal ops (the cLN and the depthwise conv) can run a [C, T] input
    as contiguous time chunks, each through the same op, as the causal
    network does with one window on several cores. Column t of an output
    reads only input columns up to t, so all that chunk i needs from the
    columns before it is each op's state at chunk i-1's last column. Each
    chunk passes its ops one ``Carry``: an op calls ``take()`` before it
    computes, for the state the same op left at the end of the chunk before
    (None for a chunk that starts the input, which starts from zero), and
    ``post(state)`` after, for the chunk after. A chunk's ops take and post
    in one order, the order of the ops. Only inputs without
    ``requires_grad`` take a carry: a chunked op records no graph.

    The chunks' outputs are the whole input's bit for bit when each chunk
    but the last is a whole number of numpy's SIMD blocks (16 steps cover
    AVX-512 at float32 and float64): numpy computes the steps of a partial
    block with other instructions.
    """

    def take(self): ...

    def post(self, state) -> None: ...


# ---------------------------------------------------------------------------
# convolution


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1, groups: int = 1, carry: Carry | None = None) -> Tensor:
    """Dilated 1-D convolution (stride 1) plus bias, in the two forms the network uses.

    x is [C_in, T] or channel-major [C_in, B, T], and the output [C_out,
    T] or [C_out, B, T]; weight is [C_out, C_in/groups, K], bias [C_out].
    Pointwise is groups=1 with K=1, one GEMM over all B*T columns.
    Depthwise is groups=C_in=C_out with any K, and causal: the input is
    zero-padded by (K-1)*dilation steps on the left, so output step t reads
    no input step after t. Any other grouping raises ShapeError.

    A depthwise conv takes a ``carry`` (see ``Carry``) when x is a time
    chunk of a longer frozen input: the left padding is then the last
    (K-1)*dilation input steps before the chunk, zero-padded as the whole
    input would be, and the chunk posts its own last (K-1)*dilation steps
    for the next chunk, so the chunks' outputs are the whole input's
    (see ``Carry`` for the chunk widths that give the same bits).
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"conv1d input must be [C,T] or [C,B,T], got {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d weight must be [C_out, C_in/groups, K], got {weight.shape}")
    if dilation < 1:
        raise ShapeError(f"dilation must be positive, got {dilation}")

    c_in, t = x.shape[0], x.shape[-1]
    c_out, cin_g, k = weight.shape
    pointwise = groups == 1 and k == 1 and cin_g == c_in
    if not pointwise and not (groups == c_in == c_out and cin_g == 1):
        raise ShapeError(
            f"conv1d runs pointwise (groups=1, K=1, C_in channels per group) or depthwise "
            f"(groups=C_in=C_out, 1 channel per group) kernels; "
            f"got groups={groups}, {c_in} input channels and weight {weight.shape}"
        )
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} does not match output channels {c_out}")
    if carry is not None:
        if pointwise:
            raise ShapeError("a carry applies to the causal depthwise conv only; a pointwise conv reads one step")
        _frozen_only("conv1d", (x, weight, bias))

    w = weight.data
    span = (k - 1) * dilation
    if pointwise:
        # one GEMM over the B*T columns of the channel-major input
        w2, x2 = w[:, :, 0], _rows(x.data)
        out = (w2 @ x2).reshape((c_out,) + x.shape[1:])
    else:
        x3 = x.data.reshape(c_in, -1, t)  # one window is B = 1
        head = None if carry is None else carry.take()
        out = np.einsum("cbtk,ck->cbt", _taps(x3, span, 0, k, dilation, head), w[:, 0, :])
        out = out.reshape((c_out,) + x.shape[1:])
        if carry is not None:
            if head is None:
                head = np.zeros(x3.shape[:-1] + (span,), dtype=x3.dtype)
            # the last span steps of head followed by x3: some of head's when the chunk is shorter than span
            carry.post(np.concatenate([head[..., t:], x3[..., max(t - span, 0) :]], axis=-1))
    out += bias.data.reshape((-1,) + (1,) * (x.ndim - 1))

    def back(g):
        _accum(bias, _rows(g).sum(axis=1))
        xv = _value(x)  # read now, not kept since the forward: a released input is rebuilt here
        if pointwise:
            gy = _rows(g)
            dw = (gy @ _rows(xv).T)[:, :, None]
            del xv
            dx = (w2.T @ gy).reshape(x.shape)
        else:
            g3 = g.reshape(c_out, -1, t)
            dw = np.einsum("cbt,cbtk->ck", g3, _taps(xv.reshape(c_in, -1, t), span, 0, k, dilation))[:, None, :]
            del xv
            # input step s collects tap kk of output step s + span - kk*dilation
            dx = np.einsum("cbtk,ck->cbt", _taps(g3, 0, span, k, dilation), w[:, 0, ::-1])
            dx = dx.reshape(x.shape)
        _accum(x, dx)
        _accum(weight, dw.astype(w.dtype, copy=False))

    return _make(out, (x, weight, bias), back)


def _taps(a: np.ndarray, left: int, right: int, k: int, dilation: int, head=None) -> np.ndarray:
    """[..., T, k] array whose [.., t, kk] entry is step t + kk*dilation of ``a`` zero-padded by (left, right).

    The pads add up to the span (k-1)*dilation; a given ``head`` of ``left``
    steps is the left pad instead of zeros. It is a strided view of the
    padded input, except at dilation 1: there the tap stride equals the time
    stride, and einsum over such a view runs 4-6x slower than over a copy
    laid out as [..., k, T] (the same values, the same bits).
    """
    t = a.shape[-1]
    padded = np.zeros(a.shape[:-1] + (left + t + right,), dtype=a.dtype)
    padded[..., left : left + t] = a
    if head is not None:
        padded[..., :left] = head
    if padded.shape[-1] < t + (k - 1) * dilation:  # as_strided does not bounds-check
        raise ShapeError(f"{padded.shape[-1]} padded steps cannot hold {t} outputs of a {k}-tap kernel")
    s = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded, shape=a.shape[:-1] + (t, k), strides=s + (s[-1] * dilation,), writeable=False
    )
    if dilation == 1:
        view = np.ascontiguousarray(np.swapaxes(view, -1, -2)).swapaxes(-1, -2)
    return view


# ---------------------------------------------------------------------------
# normalizations


def cumulative_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, alpha: Tensor | None = None, carry: Carry | None = None) -> Tensor:
    """gain * (y - mu_t) * r_t + bias: y normalized over channels and the time prefix 1..t at each step t (cLN).

    y is x, or, given a PReLU slope ``alpha``, PReLU(x) at that slope (see
    ``prelu``). x is [C, T] or channel-major [C, B, T]; gain/bias are [C, 1]
    and apply per channel, over rows of B*T steps. mu_t and r_t =
    1/sqrt(var_t + NORM_EPS) are taken jointly over channels (axis 0) and
    the time prefix 1..t, per batch item, so column t of the output depends
    only on input columns 1..t, which is what makes the model causal.

    With ``alpha`` the op runs PReLU into a fresh buffer, takes the
    statistics of that buffer and normalizes it in place, so the
    activation is never a tensor that the graph keeps until backward. The
    backward rebuilds it from x, which the graph holds anyway, then runs
    the cLN backward and the PReLU backward: the same output and gradient
    bits as ``prelu`` followed by this op without ``alpha``.

    In a training graph the output carries a rebuild, so ``release`` can
    drop its array (see the module docstring). A rebuild keeps its y and
    xhat for the backward, which then computes neither.

    Given a ``carry`` (see ``Carry``), x is a time chunk of a longer frozen
    input. The chunk takes the step count and the channel sum and square
    sum prefixes at the step before it, continues the prefix sums from
    them, and posts its own at its last step. The running sums repeat the
    additions the whole input's would make, so each chunk's output is the
    whole input's at its steps (see ``Carry`` for the chunk widths that
    give the same bits).
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"layer norm input must be [C,T] or [C,B,T], got {x.shape}")
    c, t = x.shape[0], x.shape[-1]
    if t < 1:
        raise ShapeError("layer norm needs at least one time step")
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != (c, 1):
            raise ShapeError(f"layer norm {name} must have shape ({c}, 1), got {p.shape}")
    if alpha is None:
        y = x.data
        parents = (x, gain, bias)
    else:
        prelu_values, prelu_back = _prelu(x, alpha)
        y = prelu_values()
        parents = (x, gain, bias, alpha)
    sums = y.sum(axis=0, keepdims=True)
    squares = np.einsum("c...,c...->...", y, y)[None]  # no y*y temporary
    before = 0  # the steps before x's first
    if carry is not None:
        _frozen_only("cumulative_layer_norm", parents)
        prefix = carry.take()
        if prefix is not None:
            # added to the first step, the sum the cumulative sum would form next
            before, sums_before, squares_before = prefix
            sums[..., :1] += sums_before
            squares[..., :1] += squares_before
    sums = np.cumsum(sums, axis=-1)
    squares = np.cumsum(squares, axis=-1)
    if carry is not None:
        carry.post((before + t, sums[..., -1:], squares[..., -1:]))
    counts = np.arange(before + 1, before + t + 1, dtype=y.dtype) * c
    mu = sums / counts
    var = squares / counts - mu * mu
    r = 1.0 / np.sqrt(np.maximum(var, 0.0) + np.asarray(NORM_EPS, dtype=y.dtype))
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    gd, bd = gain.data.reshape(per_channel), bias.data.reshape(per_channel)
    out_data = np.subtract(y, mu, out=None if alpha is None else y)  # PReLU's buffer is normalized in place
    out_data *= r
    out_data *= gd
    out_data += bd
    rebuilt = []  # the last rebuild's y and xhat, which the backward takes over

    def normalized():
        """y and xhat = (y - mu) * r, with the forward's bits."""
        yd = x.data if alpha is None else prelu_values()
        xhat = yd - mu
        xhat *= r
        return yd, xhat

    def rebuild():
        rebuilt[:] = normalized()
        out = rebuilt[1] * gd
        out += bd
        return out

    def back(g):
        yd, xhat = rebuilt or normalized()
        rebuilt.clear()
        _accum(gain, np.einsum("cn,cn->c", _rows(g), _rows(xhat))[:, None])
        _accum(bias, np.einsum("cn->c", _rows(g))[:, None])
        h = g * gd
        # d/dr of sum_c h*(y - mu)*r is sum_c h*(y - mu) = sum_c h*xhat / r
        g_r = np.einsum("c...,c...->...", h, xhat)[None] / r
        h *= r  # the gradient in y at fixed mu and r
        g_var = -0.5 * g_r * (r * r * r) * (var > 0)  # zero where the clamp binds
        # mu_t = S_t/n_t and var_t = Q_t/n_t - mu_t^2 over the prefix sums S, Q of y and y^2
        g_s = _suffix_sum((-h.sum(axis=0, keepdims=True) - 2.0 * mu * g_var) / counts)
        g_q = _suffix_sum(g_var / counts)
        # g_y = h + (g_s + 2 * y * g_q), built in xhat's buffer, which nothing reads any more
        g_y = np.multiply(yd, 2.0, out=xhat)
        g_y *= g_q
        g_y += g_s
        g_y += h
        del yd, xhat, h
        if alpha is None:
            _accum(x, g_y)
        else:
            prelu_back(g_y)

    return _make(out_data, parents, back, rebuild)


def _frozen_only(op: str, inputs):
    if any(p.requires_grad for p in inputs):
        raise GraphError(f"{op} runs a carry on frozen inputs only; one of its inputs requires grad")


def _suffix_sum(a):
    return np.flip(np.cumsum(np.flip(a, -1), axis=-1), -1)


# ---------------------------------------------------------------------------
# loss


def binary_cross_entropy(p: Tensor, y, rows: int | None = None) -> Tensor:
    """Summed per-class binary cross-entropy against {0,1} targets, as one op.

    p holds probabilities; they are clamped to pc = clip(p, 1e-7, 1 - 1e-7)
    before the logs. A [C] input yields the class sum; a [B, C] batch
    yields the sum of the per-row class sums times s = 1/``rows`` (default
    B, the mean over rows), rounded to p's dtype. A micro-batch of a larger
    batch passes that batch's row count, so the losses, and the gradients,
    of its micro-batches add up to the whole batch's.

    The gradient in p, for an incoming gradient g, is
    ((h*y)/pc - (h*(1-y))/(1-pc)) * live with h = -(g*s) (s = 1 for a [C]
    input) and live = (1e-7 < p < 1 - 1e-7): zero where the clamp binds.
    """
    y = np.asarray(y, dtype=p.dtype)
    if y.shape != p.shape:
        raise ShapeError(f"targets shape {y.shape} does not match predictions {p.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("binary cross-entropy targets must be exactly 0 or 1")
    lo, hi = 1e-7, 1.0 - 1e-7
    pc = np.clip(p.data, lo, hi)
    total = (-(y * np.log(pc) + (1 - y) * np.log(1 - pc))).sum()
    scale = np.asarray(1.0 / (rows or p.shape[0]) if p.ndim == 2 else 1.0, dtype=p.dtype)

    def back(g):
        h = -(g * scale)
        live = (p.data > lo) & (p.data < hi)
        _accum(p, ((h * y) / pc - (h * (1 - y)) / (1 - pc)) * live)

    return _make(total * scale, (p,), back)


# ---------------------------------------------------------------------------
# optimizer and schedule

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam moment buffers plus the shared step counter."""

    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step_count: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            first_moment=[np.zeros_like(p.data) for p in params],
            second_moment=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update: each parameter tensor is bound to a new array.

    The old array is not written to, so a snapshot sharing it (a
    ``Checkpoint``, a frozen or trainable view) keeps its values. The moment
    estimates in ``state`` are updated in place.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params, grads, and optimizer state must have matching lengths")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient {i} shape {g.shape} does not match parameter {p.data.shape}")
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


def exp_lr_schedule(epoch: int, total_epochs: int, lr_start: float, lr_end: float) -> float:
    """Geometric interpolation from lr_start (epoch 0) to lr_end (last epoch)."""
    if total_epochs < 2:
        return lr_start
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr_start * (lr_end / lr_start) ** (epoch / (total_epochs - 1))
