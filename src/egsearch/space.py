"""The searched network: an input projection, a binary-coded DAG cell over
a fixed menu of candidate operations, and a linear head.

The cell is a DAG on nodes 0..n-1 (node 0 is the projected input); every
ordered edge (i, j) with i < j carries a K-bit code saying which candidate
ops act on that edge.  Codes and concrete networks are in bijection: bit
(i, j, k) is set exactly when op k is used on edge (i, j).

`OP_SET` is the one candidate set; no function takes another.  It is
desk-scale: a hard zero, a skip connection, and three learnable linear
transforms act(x @ W + b), each naming its activation in
`autodiff.ACTIVATIONS`.  Their relative compute costs feed `EFFICIENCY`,
the static prior l every edge shares, computed and checked once at import.
`edge_op_names` names each edge's ops, for the dot export and the CLI.

`Network` holds the edges' logits and every weight; `make_network` builds
it, and `network_forward` evaluates it, the projection, the cell and the
head, as one tape op on the weights and one (E, K) code tensor, which
`Codes` carries; each edge runs one kernel (`_edge_run` forward,
`_edge_back` backward).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .gumbel import check_simplex

__all__ = [
    "OpKind",
    "OP_SET",
    "ArchitectureCode",
    "CODE_PLACE",
    "code_bits",
    "NetworkPlan",
    "Network",
    "Codes",
    "edge_list",
    "num_edges",
    "encode",
    "decode",
    "network_forward",
    "efficiency_credits",
    "EFFICIENCY",
    "make_network",
    "export_architecture",
    "parse_architecture",
    "edge_op_names",
    "export_dot",
]


@dataclass(frozen=True)
class OpKind:
    name: str
    cost: float  # relative compute credit, feeds the efficiency prior
    activation: str | None = None  # autodiff.ACTIVATIONS key of a linear op


OP_SET = (
    OpKind("zero", 0.0),
    OpKind("identity", 0.1),
    OpKind("linear_relu", 1.0, "relu"),
    OpKind("linear_tanh", 1.0, "tanh"),
    OpKind("linear_sigmoid", 1.0, "sigmoid"),
)


def edge_list(n: int) -> list:
    """All ordered edges (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def num_edges(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(eq=False)
class ArchitectureCode:
    """Binary op-selection bits for every edge of an n-node cell.

    bits has shape (num_edges, K), rows following edge_list order.
    """

    n: int
    K: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        expected = (num_edges(self.n), self.K)
        if bits.shape != expected:
            raise ValueError(f"bits shape {bits.shape} != {expected}")
        # uint8 and bool bits pass on their dtype; any other dtype is tested
        # by value, since the cast would wrap an integer and truncate a float
        if bits.dtype == np.uint8:
            bad = bits.max(initial=0) > 1
        else:
            bad = bits.dtype != bool and not np.all((bits == 0) | (bits == 1))
        if bad:
            raise ValueError(f"bits must be 0/1, got {bits.dtype} bits")
        self.bits = bits.astype(np.uint8, copy=False)

    def __eq__(self, other):
        return (
            isinstance(other, ArchitectureCode)
            and self.n == other.n
            and self.K == other.K
            and np.array_equal(self.bits, other.bits)
        )

    def bit_count(self) -> int:
        return int(self.bits.sum())


# an OP_SET code's integer is bits @ CODE_PLACE, the number its bits spell
# with op 0 the top bit, so integers order as codes do lexicographically
_CODE_SHIFT = np.arange(len(OP_SET) - 1, -1, -1)
CODE_PLACE = 1 << _CODE_SHIFT


def code_bits(integers) -> np.ndarray:
    """The bits (..., K) of each OP_SET code integer, op 0 first."""
    return (np.asarray(integers)[..., None] >> _CODE_SHIFT) & 1


@dataclass(frozen=True)
class NetworkPlan:
    """Explicit edge-op assignment: which ops act on which edges.

    edge_ops maps (i, j) to a sorted tuple of op indices; edges carrying
    no op are omitted.  This is the decoded, forward-executable view of an
    ArchitectureCode.
    """

    n: int
    K: int
    edge_ops: tuple  # sorted tuple of ((i, j), (k, ...)) pairs


def encode(plan: NetworkPlan) -> ArchitectureCode:
    """Set bit (i, j, k) for every op k the plan assigns to edge (i, j);
    an edge listed twice keeps its last entry.  An edge outside the cell, or
    an op index that is not an integer or is outside 0..K-1, raises
    ValueError naming the edge."""
    bits = np.zeros((num_edges(plan.n), plan.K), dtype=np.uint8)
    row = {e: r for r, e in enumerate(edge_list(plan.n))}
    rows, ops = [], []
    for (i, j), ks in dict(plan.edge_ops).items():
        if (i, j) not in row:
            raise ValueError(f"edge ({i}, {j}) out of range for n={plan.n}")
        r = row[(i, j)]
        for k in ks:
            try:
                k = operator.index(k)  # an int or a numpy integer, not a float
            except TypeError:
                raise ValueError(f"op index is not an integer on edge ({i}, {j}): {ks}") from None
            if not 0 <= k < plan.K:
                raise ValueError(f"op index out of range on edge ({i}, {j}): {ks}")
            rows.append(r)
            ops.append(k)
    bits[rows, ops] = 1
    return ArchitectureCode(n=plan.n, K=plan.K, bits=bits)


def decode(code: ArchitectureCode) -> NetworkPlan:
    """Invert encode: list the op indices set on each edge, for any K."""
    rows, ks = np.nonzero(code.bits)  # row-major, so each row's ops ascend
    edge_ops = {}
    for r, k in zip(rows.tolist(), ks.tolist()):
        edge_ops.setdefault(r, []).append(k)
    edges = edge_list(code.n)
    return NetworkPlan(n=code.n, K=code.K,
                       edge_ops=tuple((edges[r], tuple(ops)) for r, ops in edge_ops.items()))


# ---------------------------------------------------------------------------
# forward evaluation


# (k, activation name) of each op that reads x: every op but zero
_READERS = tuple((k, kind.activation) for k, kind in enumerate(OP_SET) if kind.name != "zero")


def _edge_run(xd, x_grad, c, code_grad, params, keep):
    """One edge's forward: sum_k c[k] * op_k(xd), summed in op order, each
    linear op computing act(xd @ W + b) from its `ad.ACTIVATIONS` entry.
    `c` is the edge's code as a list of K floats; `x_grad` and `code_grad`
    say whether xd's tensor and the code tensor need a gradient.

    Returns the output, whether it needs a gradient, and, with `keep`, the
    runs its backward needs, one (k, output, derivative, W, b, W's data)
    per op that read xd, in op order (None without `keep`, so no activation
    outlives the edge).  A zero entry's op is skipped, unless `keep` and the
    code is on the tape, where the code's gradient needs its output; its
    term 0 * op_k(xd) is never added.  A 1.0 entry's term is op_k(xd)
    itself.
    """
    wants = code_grad
    every = keep and wants
    total = None
    runs = [] if keep else None
    for k, activation in _READERS:
        ck = c[k]
        if ck == 0.0 and not every:
            continue
        if activation is None:  # identity
            a, deriv, W, b, wd = xd, None, None, None, None
            wants = wants or x_grad
        else:
            act, deriv = ad.ACTIVATIONS[activation]
            op = params[k]
            W, b = op["W"], op["b"]
            wd = W.data
            a = act(xd @ wd + b.data)
            wants = wants or x_grad or W.requires_grad or b.requires_grad
        if ck != 0.0:
            term = a if ck == 1.0 else ck * a
            total = term if total is None else total + term
        if keep:
            runs.append((k, a, deriv, W, b, wd))
    return (np.zeros_like(xd) if total is None else total), wants, runs


def _edge_back(g, c, gc, xd, x_grad, runs, grads):
    """One edge's backward, for its output gradient g and its code c (a
    list of K floats).  Adds the code's gradient into gc, the edge's row of
    the code tensor's gradient (None unless the code needs one), appends to
    `grads` W's and b's of each linear run in reverse op order, and returns
    x's contributions in reverse op order (None where none is due).  Each
    is the arithmetic of the same sum recorded op by op (row pick,
    multiply, add, matmul, activation).  Where c[k] is 1.0 no multiply
    runs; where it is 0.0 the identity op passes x nothing, and a linear op
    whose W and b need no gradient computes neither its derivative nor its
    product for x."""
    to_x = []
    for k, a, deriv, W, b, wd in reversed(runs):
        ck = c[k]
        if gc is not None:
            gc[k] += _sum0(_sum0(g * a))
        if deriv is None:
            to_x.append((g if ck == 1.0 else g * ck) if x_grad and ck != 0.0 else None)
            continue
        w_grad, b_grad = W.requires_grad, b.requires_grad
        if not ((x_grad and ck != 0.0) or w_grad or b_grad):
            to_x.append(None)
            grads += (None, None)
            continue
        gz = deriv(g if ck == 1.0 else g * ck, a)
        to_x.append(gz @ wd.T if x_grad else None)
        grads += (xd.T @ gz if w_grad else None, _sum0(gz) if b_grad else None)
    return to_x


def _sum0(a):
    """a.sum(axis=0): the same reduction, without the method's wrapper."""
    return np.add.reduce(a, 0)


def efficiency_credits() -> np.ndarray:
    """Static efficiency prior: softmax of negated op costs."""
    return ad.softmax_of(-np.array([op.cost for op in OP_SET], dtype=np.float64))


# the prior l every cell shares, checked once and read-only
EFFICIENCY = check_simplex(efficiency_credits(), "l")
EFFICIENCY.setflags(write=False)


@dataclass
class Network:
    """The searched network: an input projection (w_in, b_in), an n-node
    DAG cell and a linear head (w_out, b_out).

    Row r of `logits` belongs to edge_list(n)[r].  Its softmax is the
    edge's effectiveness h; l (efficiency) is a static prior from op costs,
    shared by every edge; the edge's sampling vector is their lam-weighted
    convex mix.  `params` maps each edge to one parameter dict per op of
    `OP_SET` ({} for an op without weights).  The output rule sums or
    concatenates the non-input nodes for the head.
    """

    n: int
    logits: ad.Tensor  # (E, K), requires grad
    l: np.ndarray  # (K,), on the simplex
    lam: float  # in [0, 1]
    params: dict  # (i, j) -> list of per-op parameter dicts
    w_in: ad.Tensor
    b_in: ad.Tensor
    w_out: ad.Tensor
    b_out: ad.Tensor
    output_rule: str  # "sum" or "concat"

    def mix(self) -> tuple:
        """Every edge's sampling vector lam * softmax(logits) + (1 - lam) * l
        as an (E, K) array, rows in edge_list order, with the map from its
        gradient to the logits'.  Nothing is checked or recorded: a draw
        checks p (`gumbel.draw_scores`)."""
        h, lam = ad.softmax_of(self.logits.data), self.lam
        return h * lam + self.l * (1.0 - lam), lambda g: ad.softmax_vjp(h, g * lam)

    def weights(self) -> list:
        """The projection's W and b, each edge's in edge_list and op order,
        then the head's."""
        cell = [t for e in edge_list(self.n) for op in self.params[e] for t in op.values()]
        return [self.w_in, self.b_in, *cell, self.w_out, self.b_out]

    def constant(self) -> "Network":
        """A view with every weight entered as a constant, sharing the data
        and the logits tensor: the network op computes no gradient for
        them."""

        def const(t):
            return ad.Tensor(t.data)

        params = {e: [{name: const(t) for name, t in op.items()} for op in ops]
                  for e, ops in self.params.items()}
        return replace(self, params=params, w_in=const(self.w_in), b_in=const(self.b_in),
                       w_out=const(self.w_out), b_out=const(self.b_out))


def make_network(in_dim, n_classes, cfg, init_rng) -> Network:
    """Build the network for `cfg`'s nodes, dim, lam and output rule, with
    uniform logits.  Each W is drawn normal and scaled by 1/sqrt(its rows),
    each b is zero; `init_rng` draws every edge's linear ops in edge_list
    and op order, then the projection, then the head."""
    if cfg.output_rule not in ("sum", "concat"):
        raise ValueError(f"output_rule must be sum or concat, got {cfg.output_rule!r}")
    if not 0.0 <= cfg.lam <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {cfg.lam}")
    n, dim = cfg.nodes, cfg.dim

    def linear(rows, cols):
        return {"W": ad.Tensor(init_rng.normal(0.0, 1.0, (rows, cols)) / np.sqrt(rows),
                               requires_grad=True),
                "b": ad.Tensor(np.zeros(cols), requires_grad=True)}

    params = {e: [{} if op.activation is None else linear(dim, dim) for op in OP_SET]
              for e in edge_list(n)}
    w_in, b_in = linear(in_dim, dim).values()
    w_out, b_out = linear(dim if cfg.output_rule == "sum" else dim * (n - 1), n_classes).values()
    return Network(
        n=n, logits=ad.Tensor(np.zeros((num_edges(n), len(OP_SET))), requires_grad=True),
        l=EFFICIENCY, lam=cfg.lam, params=params, w_in=w_in, b_in=b_in,
        w_out=w_out, b_out=b_out, output_rule=cfg.output_rule,
    )


class Codes:
    """One forward's codes for every edge of an n-node cell: `tensor` is the
    (E, K) code tensor, rows in edge_list order, which `network_forward`
    reads, its shape checked once, here.  `items()` pairs each edge with a
    constant view of its row, made on call."""

    __slots__ = ("n", "tensor")

    def __init__(self, n: int, tensor):
        tensor = ad.as_tensor(tensor)
        expected = (num_edges(n), len(OP_SET))
        if tensor.shape != expected:
            raise ad.ShapeMismatchError(f"codes for n={n}", (tensor.shape, expected))
        self.n, self.tensor = n, tensor

    def items(self):
        return zip(edge_list(self.n), map(ad.Tensor, self.tensor.data))


def network_forward(network: Network, x_in, codes: Codes) -> ad.Tensor:
    """The network's logits for the batch x_in, recorded as one op: node 0
    is x_in @ w_in + b_in, node j sums the outputs of the edges (i, j),
    i < j, in ascending i, the output rule aggregates the non-input nodes,
    and the output is the aggregate @ w_out + b_out.

    Edge (i, j) reads its code from its row of `codes.tensor`, the op's one
    code input, which must be (E, K) for the network's n; each edge runs
    one kernel (`_edge_run` forward, `_edge_back` backward).  Every
    weight's `.data` is read when the op runs.  A code entry of exactly 0.0
    skips its term; each skipped contribution was exactly +-0, so only the
    sign of an entry that is exactly zero may differ from the op chain's.

    The backward repeats the arithmetic of the same network recorded op by
    op, in the order that sweep runs: the head (b's gradient g.sum(0), then
    W's and the aggregate's), the output rule (each node gets g for sum,
    its `np.split` piece for concat), then nodes j = n-1 .. 1, and for each
    the edges (i, j) from i = j-1 down to 0, node i's gradient growing as
    gn[i] + contribution in the edge's reverse op order; last the
    projection (b's gradient gh.sum(0), x_in's, W's).  Each edge's code
    gradient goes into its row of one (E, K) array, allocated only when
    the code tensor needs a gradient; the op chain's row picks give each
    row the same sum.  The node lists the code tensor first, then the
    other inputs in the backward's order.  Outside a tape no edge's
    activations outlive the edge; in the backward each edge's activations
    are dropped as soon as the edge is done, and each node's value and
    gradient once its edges are.
    """
    n = network.n
    code = codes.tensor
    expected = (num_edges(n), len(OP_SET))
    if code.shape != expected:
        raise ad.ShapeMismatchError(f"codes for the {n}-node network", (code.shape, expected))
    c = code.data.tolist()
    code_grad = code.requires_grad
    x_in = ad.as_tensor(x_in)
    keep = ad.taping()
    xd = x_in.data
    w_in, b_in = network.w_in, network.b_in
    win = w_in.data
    if xd.ndim != 2 or win.ndim != 2 or xd.shape[1] != win.shape[0]:
        raise ad.ShapeMismatchError("matmul", (xd.shape, win.shape))
    # each node's array, and whether it needs a gradient
    values = [xd @ win + b_in.data]
    grad = [x_in.requires_grad or w_in.requires_grad or b_in.requires_grad]
    # built in the reverse of the backward's order: the projection, then per
    # edge b and W of each linear op in op order
    reversed_inputs = [w_in, x_in, b_in]
    edges = []  # (i, row, runs, whether the edge needs a gradient), forward order
    for j in range(1, n):
        acc, needs = None, False
        for i in range(j):
            r = i * (2 * n - i - 1) // 2 + j - i - 1  # (i, j)'s place in edge_list
            total, wants, runs = _edge_run(values[i], grad[i], c[r], code_grad,
                                           network.params[(i, j)], keep)
            acc = total if acc is None else acc + total
            del total
            if keep:
                for _, _, deriv, W, b, _ in runs:
                    if deriv is not None:
                        reversed_inputs += (b, W)
                edges.append((i, r, runs, wants))
                needs = needs or wants
            del runs
        values.append(acc)
        grad.append(needs)
        del acc
    inner = values[1:]
    if network.output_rule == "concat":
        out = np.concatenate(inner, axis=-1)
    else:
        out = inner[0]
        for v in inner[1:]:
            out = out + v
    del inner
    w_out, b_out = network.w_out, network.b_out
    wout = w_out.data
    if wout.ndim != 2 or out.shape[1] != wout.shape[0]:
        raise ad.ShapeMismatchError("matmul", (out.shape, wout.shape))
    result = out @ wout + b_out.data
    if not keep:
        return ad.Tensor(result)
    reversed_inputs += (w_out, b_out, code)

    out_grad = any(grad[1:])
    sizes = [v.shape[-1] for v in values[1:]]
    held = [out]  # the aggregate, for W's gradient
    del out

    def back(g):
        aggregate = held.pop()
        gcode = np.zeros(expected) if code_grad else None
        grads = [gcode, _sum0(g) if b_out.requires_grad else None,
                 aggregate.T @ g if w_out.requires_grad else None]
        del aggregate
        g = g @ wout.T if out_grad else None
        gn = [None] * n
        if g is not None:
            if network.output_rule == "concat":
                pieces = np.split(g, np.cumsum(sizes)[:-1], axis=-1)
                gn[1:] = [p if needs else None for p, needs in zip(pieces, grad[1:])]
            else:
                gn[1:] = [g if needs else None for needs in grad[1:]]
        del g
        for j in range(n - 1, 0, -1):
            gj, gn[j], values[j] = gn[j], None, None
            for _ in range(j):
                i, r, runs, wants = edges.pop()
                if gj is None or not wants:
                    grads += [None, None] * sum(run[2] is not None for run in runs)
                    continue
                gc = None if gcode is None else gcode[r]
                for gx in _edge_back(gj, c[r], gc, values[i], grad[i], runs, grads):
                    if gx is not None:
                        gn[i] = gx if gn[i] is None else gn[i] + gx
                del runs
            del gj
        values.clear()
        gh = gn[0]
        if gh is None:
            grads += (None, None, None)
        else:
            grads += (_sum0(gh) if b_in.requires_grad else None,
                      gh @ win.T if x_in.requires_grad else None,
                      xd.T @ gh if w_in.requires_grad else None)
        return grads

    return ad.record(result, reversed_inputs[::-1], back)


# ---------------------------------------------------------------------------
# exports


def export_architecture(code: ArchitectureCode) -> str:
    """Structured text export: dims, op names, and the bit array."""
    doc = {
        "n": code.n,
        "K": code.K,
        "ops": [op.name for op in OP_SET[: code.K]],
        "edges": [
            {"from": i, "to": j, "bits": [int(b) for b in code.bits[r]]}
            for r, (i, j) in enumerate(edge_list(code.n))
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _integer(value, what):
    if type(value) is not int:  # a JSON integer, not a float or a bool
        raise ValueError(f"architecture file: {what} must be an integer, got {value!r}")
    return value


def parse_architecture(text: str) -> ArchitectureCode:
    """Read an `export_architecture` document.  A missing key, a value of
    the wrong type, a non-integer n, K or edge end, an n below 2, a K other
    than the op set's size, ops other than the op set's names in order, a
    bit that is not 0 or 1, an edge outside the cell or listed twice, a row
    of the wrong length, or an edge list that is not each of the cell's
    edges once raises ValueError.  The edges are checked before anything
    sized by n is built, so the file's own length bounds n."""
    doc = json.loads(text)
    try:
        n, k = _integer(doc["n"], "n"), _integer(doc["K"], "K")
        ops = doc["ops"]
        rows = [((_integer(d["from"], "from"), _integer(d["to"], "to")), list(d["bits"]))
                for d in doc["edges"]]
    except KeyError as exc:
        raise ValueError(f"architecture file: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"architecture file: malformed ({exc})") from None
    if n < 2:
        raise ValueError(f"architecture file: n is {n}, a cell has at least 2 nodes")
    if k != len(OP_SET):
        raise ValueError(f"architecture file: K is {k}, the op set has {len(OP_SET)} ops")
    names = [op.name for op in OP_SET]
    if ops != names:
        raise ValueError(f"architecture file: ops are {ops!r}, the op set is {names}")
    given = {}
    for e, values in rows:
        if not 0 <= e[0] < e[1] < n:
            raise ValueError(f"architecture file: edge {e} is outside the {n}-node cell")
        if e in given:
            raise ValueError(f"architecture file: edge {e} is listed twice")
        if len(values) != k:
            raise ValueError(f"architecture file: edge {e} has {len(values)} bits, K is {k}")
        if any(type(b) is not int or b not in (0, 1) for b in values):
            raise ValueError(f"architecture file: edge {e} has bits {values}, not each 0 or 1")
        given[e] = values
    if len(given) != num_edges(n):
        raise ValueError(f"architecture file: edges lists {len(given)} edges, "
                         f"the {n}-node cell has {num_edges(n)}")
    bits = np.array([given[e] for e in edge_list(n)], dtype=np.uint8)
    return ArchitectureCode(n=n, K=k, bits=bits)


def edge_op_names(code: ArchitectureCode) -> list:
    """(edge, "op+op") for every edge in edge_list order: the names of the
    ops its code sets, joined by "+", or "" on an edge with none."""
    return [(e, "+".join(OP_SET[k].name for k in np.flatnonzero(code.bits[r])))
            for r, e in enumerate(edge_list(code.n))]


def export_dot(code: ArchitectureCode) -> str:
    """Graph-description text: one digraph with op labels per active edge."""
    lines = ["digraph cell {", "  rankdir=LR;"]
    for v in range(code.n):
        label = "in" if v == 0 else f"x{v}"
        lines.append(f'  n{v} [label="{label}"];')
    for (i, j), names in edge_op_names(code):
        if names:
            lines.append(f'  n{i} -> n{j} [label="{names}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
