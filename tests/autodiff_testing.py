"""Ops and a gradient checker that only the tests use, built over ``autodiff``'s graph primitives."""

import numpy as np

from classvoice import autodiff as ad


def mul(a, b):
    """The elementwise product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"mul takes two tensors of one shape, got {a.shape} and {b.shape}")

    def back(g):
        ad._accum(a, g * b.data)
        ad._accum(b, g * a.data)

    return ad._make(a.data * b.data, (a, b), back)


def tsum(a):
    """The sum of every entry, as a scalar."""
    return ad._make(a.data.sum(), (a,), lambda g: ad._accum(a, np.broadcast_to(g, a.shape)))


def grad_check(f, x, epsilon: float = 1e-4) -> float:
    """Compare reverse-mode gradients of scalar f(x) against central differences.

    Returns the max relative error over the entries of x. Build f's tensors
    (x and any captured parameters) in float64 so the 1e-4 tolerance is
    meaningful; x is perturbed in place during the check and restored.
    """
    x.grad = None
    out = f(x)
    if out.size != 1:
        raise ad.ShapeError(f"grad_check needs a scalar function, f returned shape {out.shape}")
    ad.backward(out)
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
