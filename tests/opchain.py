"""The reference op chain, and the gradient-check helpers the tests share.

The package records a network as one op (`space.network_forward`) and the
sampler's probabilities and codes as one op on the logits
(`gumbel.egs_sample_of`).  The ops here record the same arithmetic one
primitive at a time: the tests hold each fused op to a chain of them bit
for bit, and the acceptance gate checks each of them against central
differences.  The sampler's chain is the relaxation, one component at a
time (`relaxation`), under straight-through codes (`straight_through`).
`pick` takes one edge's row of a code tensor, as the op chain reads it.
The binary ops (`add`, `multiply`, `matmul`, `maximum`) compute no
gradient for an input that does not require grad.
"""

import math
from collections import namedtuple

import numpy as np

from egsearch import autodiff as ad
from egsearch.autodiff import (
    ACTIVATIONS,
    ShapeMismatchError,
    as_tensor,
    record,
    softmax_of,
    softmax_vjp,
)
from egsearch.gumbel import draw_scores, egs_sample_of, gumbel_transform

FD_STEP = 1e-5


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatchError("add", (a.shape, b.shape)) from None

    def back(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return record(out, (a, b), back)


def multiply(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("multiply", (a.shape, b.shape)) from None

    def back(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return record(out, (a, b), back)


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeMismatchError("matmul", (a.shape, b.shape))

    def back(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return record(ad @ bd, (a, b), back)


def _activation(name):
    forward, derivative = ACTIVATIONS[name]

    def op(x):
        x = as_tensor(x)
        out = forward(x.data)
        return record(out, (x,), lambda g: (derivative(g, out),))

    return op


relu, tanh, sigmoid = map(_activation, ("relu", "tanh", "sigmoid"))


def softmax(x):
    """Shifted softmax over the last axis, as an op."""
    x = as_tensor(x)
    out = softmax_of(x.data)
    return record(out, (x,), lambda g: (softmax_vjp(out, g),))


def log(x):
    x = as_tensor(x)
    with np.errstate(divide="ignore"):
        out = np.log(x.data)

    def back(g):
        # zero upstream grad stays zero even where x == 0 (log -> -inf)
        res = np.zeros_like(x.data)
        np.divide(g, x.data, out=res, where=g != 0.0)
        return (res,)

    return record(out, (x,), back)


def exp(x):
    x = as_tensor(x)
    out = np.exp(x.data)

    def back(g):
        return (g * out,)

    return record(out, (x,), back)


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = np.maximum(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError("elementwise-max", (a.shape, b.shape)) from None
    take_a = a.data >= b.data

    def back(g):
        return (
            _unbroadcast(np.where(take_a, g, 0.0), a.shape) if a.requires_grad else None,
            _unbroadcast(np.where(take_a, 0.0, g), b.shape) if b.requires_grad else None,
        )

    return record(out, (a, b), back)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    shapes = [t.shape for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
    base = list(shapes[0])
    for s in shapes[1:]:
        trimmed = list(s)
        if len(trimmed) != len(base):
            raise ShapeMismatchError("concat", shapes)
        trimmed[axis] = base[axis]
        if trimmed != base:
            raise ShapeMismatchError("concat", shapes)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return record(out, tuple(tensors), back)


def pick(x, k):
    """Select `x[k]` along the first axis: an entry of a vector as a scalar
    tensor, or a row of a matrix, such as one edge's row of a code tensor."""
    x = as_tensor(x)
    if x.data.ndim == 0:
        raise ShapeMismatchError("pick", (x.shape,))
    k = int(k)

    def back(g):
        res = np.zeros_like(x.data)
        res[k] = g
        return (res,)

    return record(np.asarray(x.data[k]), (x,), back)


def mean(x):
    x = as_tensor(x)
    n = x.data.size

    def back(g):
        return (np.full(x.shape, float(g) / n),)

    return record(np.asarray(x.data.mean()), (x,), back)


def scale(x, factor):
    """Multiply by a plain (non-differentiable) scalar."""
    x = as_tensor(x)
    factor = float(factor)

    def back(g):
        return (g * factor,)

    return record(x.data * factor, (x,), back)


def straight_through(soft, hard_values):
    """Forward `hard_values` exactly, backward the identity onto `soft`."""
    soft = as_tensor(soft)
    hard_values = np.asarray(hard_values, dtype=np.float64)
    if hard_values.shape != soft.shape:
        raise ShapeMismatchError("straight-through", (soft.shape, hard_values.shape))
    return record(hard_values.copy(), (soft,), lambda g: (g,))


# ---------------------------------------------------------------------------
# sampling probabilities


def mix_op(network):
    """`network.mix()` recorded as one (E, K) op on the network's logits."""
    p, vjp = network.mix()
    return record(p, (network.logits,), lambda g: (vjp(g),))


Sample = namedtuple("Sample", "hard soft")


def egs_sample(p, M, tau, rng):
    """`gumbel.egs_sample_of` with p itself as the source: an EGS draw of
    one probability vector or a stack of them, on the tape or constant.
    Returns `hard`, the package's code tensor, and `soft`, the values of the
    relaxation max_m softmax(scores_m / tau) whose gradient it passes on,
    recomputed with the same arithmetic from the same uniforms, as a
    constant."""
    p = as_tensor(p)
    replay = rng.clone()
    hard = egs_sample_of(p, p.data, lambda g: g, M, tau, rng)
    soft = softmax_of(draw_scores(p.data, M, replay) * (1.0 / tau)).max(axis=-2)
    return Sample(hard, ad.Tensor(soft))


def relaxation(p, M, tau, rng):
    """An EGS draw's relaxation from the tensor p (..., K), max_m
    softmax((log p + G_m) / tau), one component at a time (log, add, scale,
    softmax, then `maximum` with the components before it), with its codes:
    `straight_through(soft, hard)` is the chain the package's sampler node
    reproduces bit for bit.  One rng.uniform call draws the uniforms, in
    the sampler's (row, component, category) order."""
    p = as_tensor(p)
    shape = p.shape[:-1] + (M, p.shape[-1])
    noise = gumbel_transform(rng.uniform(math.prod(shape)).reshape(shape))
    soft = hard = None
    for m in range(M):
        scores = add(log(p), ad.Tensor(noise[..., m, :]))
        comp = softmax(scale(scores, 1.0 / tau))
        onehot = (scores.data.argmax(axis=-1)[..., None]
                  == np.arange(p.shape[-1])).astype(np.float64)
        soft = comp if soft is None else maximum(soft, comp)
        hard = onehot if hard is None else np.maximum(hard, onehot)
    return soft, hard


def chain_mix(logits, l, lam):
    """One edge's sampling vector lam * softmax(logits) + (1 - lam) * l as a
    chain of primitive ops: the reference the (E, K) op reproduces."""
    return add(scale(softmax(logits), lam), scale(ad.Tensor(l), 1.0 - lam))


def weighted(rows, w):
    """sum_r mean(rows[r] * w[r]), one op at a time."""
    total = None
    for r, row in enumerate(rows):
        term = mean(multiply(row, ad.Tensor(w[r])))
        total = term if total is None else add(total, term)
    return total


# ---------------------------------------------------------------------------
# finite differences


def fd_grad(fn, x, step=FD_STEP):
    """Central finite differences of scalar fn at (a copy of) array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def assert_grads_close(analytic, numeric):
    a = np.asarray(analytic).reshape(-1)
    f = np.asarray(numeric).reshape(-1)
    assert a.shape == f.shape
    tol = np.maximum(1e-7, 1e-4 * np.maximum(np.abs(a), np.abs(f)))
    err = np.abs(a - f)
    assert np.all(err <= tol), f"max err {err.max():.3e} vs tol {tol[err.argmax()]:.3e}"


def scalarize(t):
    """Reduce any tensor to a scalar with data-dependent weights."""
    w = np.cos(np.arange(t.data.size, dtype=np.float64)).reshape(t.data.shape)
    return mean(multiply(t, ad.Tensor(w * t.data.size)))


def check_op(build, arrays, n_trials=100, seed=0):
    """FD-check `build(tensors) -> scalar loss` on random perturbations.

    `arrays(rng)` returns the list of input arrays for one trial; every
    input is treated as differentiable.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        xs = arrays(rng)
        tensors = [ad.Tensor(x, requires_grad=True) for x in xs]
        with ad.Tape():
            loss = build(tensors)
            grads = ad.backward(loss)
        for k, t in enumerate(tensors):

            def f(v, k=k):
                vals = [np.array(x, dtype=np.float64) for x in xs]
                vals[k] = v
                ts = [ad.Tensor(val) for val in vals]
                with ad.Tape():
                    return float(build(ts).data)

            assert_grads_close(grads[t], fd_grad(f, xs[k]))
