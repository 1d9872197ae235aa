"""Minimal reverse-mode autodiff on a dynamic Wengert tape.

Graphs are built define-by-run inside a `with Tape()` block: every
differentiable op with an input that requires grad links its output to a
node holding its inputs and backward rule, and appends that node to the
innermost open tape.  Outside every tape an op returns a constant: no node,
and `requires_grad` False.  `backward` sweeps the innermost open tape in
reverse from the loss's node; a tensor recorded anywhere else is a leaf of
that sweep.  The sweep frees the graph as it goes: each node it has swept
drops its inputs and its backward rule, and its output's gradient is
dropped, so only the leaves' gradients come back.  Nodes refer to their
outputs weakly, so what is left of a graph is freed by reference counting
as soon as its last tensor goes.  Everything is float64.

The package records three ops: the network (`space.network_forward`), the
sampler, whose codes pass the relaxation's gradient straight through
(`gumbel.egs_sample_of`), and the loss.  Each activation's forward and its
derivative from the output are written once, in `ACTIVATIONS`, which the
edge kernel in `space` reads for the linear ops.  The shifted softmax and
its gradient are written once too (`softmax_of`, `softmax_vjp`), and every
softmax in the package uses them.

A step frees its graph during its sweep, and the next step builds one of
about the same size.  So at import, glibc's allocator is told to keep freed
memory in the heap (`_keep_heap`) instead of returning it to the system and
faulting it back in on the next step.
"""

from __future__ import annotations

import ctypes
import threading
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "record",
    "taping",
    "backward",
    "ACTIVATIONS",
    "stable_sigmoid",
    "softmax_of",
    "softmax_vjp",
    "cross_entropy_with_logits",
    "as_tensor",
]


class ShapeMismatchError(ValueError):
    """Raised when an op receives incompatible input shapes."""

    def __init__(self, kind, shapes):
        self.kind = kind
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{kind}: incompatible shapes {self.shapes}")


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> bool:
    """Keep a freed step graph in the heap for the next step.

    Arrays up to 32 MB (the ceiling of glibc's own dynamic mmap threshold)
    come from the heap, and the heap top is never trimmed.  Returns whether
    both settings took; where the C library has no mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took = [mallopt(_M_MMAP_THRESHOLD, 32 << 20),
            mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)]
    return all(took)


_keep_heap()

_TLS = threading.local()


class TapeNode:
    """One recorded op.  `output` is held weakly: the output tensor owns its
    node (`Tensor.node`), not the other way round, so no graph is a cycle.
    `backward` releases a node it has swept: `inputs` and `backward_fn`
    become None."""

    __slots__ = ("inputs", "_output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.backward_fn = backward_fn

    @property
    def output(self):
        """The tensor this node produced, or None once it has been freed."""
        return self._output()


class Tape:
    """Append-only record of the differentiable ops run inside its block.

    Use as a context manager to scope recording; trainer code opens a fresh
    tape per loss.  Ops record only inside a block, each on the innermost
    open tape, so `nodes` is in recording order, which is a topological
    order, and `backward` sweeps it in reverse.  A tensor recorded on an
    outer tape and used inside an inner one is a leaf of the inner sweep: it
    gets its gradient in the map `backward` returns, and the sweep stops
    there.  A tape must stay on the thread that created it.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False


def _tape_stack():
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class Tensor:
    """Dense float64 array plus autodiff bookkeeping.

    `node` is the handle of the tape node that produced this tensor (None
    for leaves and constants).  Tensors hash by identity, so they key the
    gradient map that `backward` returns.
    """

    __slots__ = ("data", "requires_grad", "node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def taping() -> bool:
    """Whether a tape is open on this thread, so that `record` may record:
    an op that saves arrays for its backward need not save them otherwise."""
    return bool(_tape_stack())


def record(out_data, inputs, backward_fn):
    """Wrap `out_data` as the output of an op on the tensors `inputs`.

    When a tape is open and any input requires grad, the output gets a
    node, which the innermost open tape appends; otherwise the output is a
    constant.  `backward_fn(g)` maps the output's gradient to one gradient
    per input, in order (None to skip, as for an input that does not
    require grad).  `inputs` is a sequence the caller no longer changes;
    the node keeps it as it is.  (Copied into a tuple, a network op's
    inputs would leak on CPython 3.11 whenever they number 20: a freed
    20-item tuple goes on a free list that no allocation takes from.)
    """
    out = Tensor(out_data)
    stack = _tape_stack()
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        node = TapeNode(inputs, out, backward_fn)
        out.node = node
        stack[-1].nodes.append(node)
    return out


def stable_sigmoid(d):
    """The logistic function of an array, without overflow in exp.

    With e = exp(-|d|), it is 1 / (1 + e) where d >= 0 and e / (1 + e)
    elsewhere: the same two roundings on the same values as the masked
    forms 1 / (1 + exp(-d)) and exp(d) / (1 + exp(d)), computed in place
    with no boolean indexing.  The numerator is max(e, d >= 0), which is
    1.0 or e since e <= 1, and e itself wherever e or d is NaN.
    """
    e = np.abs(d, out=np.empty_like(d))  # out= keeps a 0-d input an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, d >= 0, out=np.empty_like(e))
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)


def _relu(z):
    """max(z, 0) with +0.0 for z = -0.0 and 0.0 for NaN: fmax drops NaN,
    and adding +0.0 turns the -0.0 fmax keeps into +0.0."""
    out = np.fmax(z, 0.0)
    out += 0.0
    return out


# each activation's forward, and its derivative from the output a
ACTIVATIONS = {
    "relu": (_relu, lambda g, a: g * (a > 0.0)),
    "tanh": (np.tanh, lambda g, a: g * (1.0 - a * a)),
    "sigmoid": (stable_sigmoid, lambda g, a: g * a * (1.0 - a)),
}


def softmax_of(z):
    """Shifted softmax of an array over its last axis; preserves the argmax
    exactly, and a -inf entry (a zero probability) maps to 0."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(y, g):
    """The gradient for z of g . y, where y = softmax_of(z)."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def cross_entropy_with_logits(logits, labels):
    """Mean cross-entropy of integer `labels` under row `logits`.

    Fused log-sum-exp keeps the forward and backward stable for large
    logits; `labels` is a plain integer array, not a differentiable input.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeMismatchError(
            "cross-entropy-with-logits", (logits.shape, labels.shape)
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    total = ez.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + zmax[:, 0]
    n = labels.shape[0]
    rows = np.arange(n)
    nll = (lse - z[rows, labels]).mean()
    probs = ez / total

    def back(g):
        gz = probs.copy()
        gz[rows, labels] -= 1.0
        return (gz * (float(g) / n),)

    return record(np.asarray(nll), (logits,), back)


# ---------------------------------------------------------------------------
# the backward sweep


def backward(loss):
    """Reverse sweep of the innermost open tape from a scalar `loss`.

    Returns {tensor: gradient} for the leaves of the sweep: every
    requires_grad tensor that the loss reaches through the nodes on that
    tape and that no node on it produced (parameters, inputs, and tensors
    recorded on an outer tape).  The sweep frees the graph as it goes: once
    a node's backward has run, the node drops its inputs and its backward
    rule, with the activations that rule saved, and its output's gradient
    is dropped too.  So a swept tape cannot be swept again: a sweep that
    reaches a released node raises ValueError.  Raises ValueError as well
    when no tape is open or the loss's node is not on the innermost one.
    """
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        got = loss.shape if isinstance(loss, Tensor) else type(loss)
        raise ValueError(f"backward expects a scalar tensor, got {got}")
    stack = _tape_stack()
    if not stack or loss.node not in stack[-1].nodes:
        raise ValueError("backward needs the loss recorded on the innermost open tape")

    nodes = stack[-1].nodes
    grads = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(nodes[:nodes.index(loss.node) + 1]):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        if node.backward_fn is None:
            raise ValueError("backward reached a node that an earlier sweep released; "
                             "a tape can be swept once")
        for t, gin in zip(node.inputs, node.backward_fn(g)):
            if not t.requires_grad or gin is None:
                continue
            if (type(gin) is not np.ndarray or gin.dtype != np.float64
                    or gin.shape != t.data.shape):
                gin = np.asarray(gin, dtype=np.float64).reshape(t.data.shape)
            if t in grads:
                grads[t] = grads[t] + gin
            else:
                grads[t] = gin
        node.inputs = node.backward_fn = None
    return grads
