"""Binary-coded DAG cells over a fixed menu of candidate operations.

A cell is a DAG on nodes 0..n-1 (node 0 is the input); every ordered edge
(i, j) with i < j carries a K-bit code saying which candidate ops act on
that edge.  Codes and concrete networks are in bijection: bit (i, j, k) is
set exactly when op k is used on edge (i, j).

`OP_SET` is the one candidate set; no function takes another.  It is
desk-scale: a hard zero, a skip connection, and three learnable linear
transforms act(x @ W + b), each naming its activation in
`autodiff.ACTIVATIONS`.  Their relative compute costs feed `EFFICIENCY`,
the static prior l every cell shares, computed and checked once at import.
`edge_op_names` names each edge's ops, for the dot export and the CLI.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

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
    "Cell",
    "edge_list",
    "num_edges",
    "encode",
    "decode",
    "edge_forward",
    "cell_forward",
    "efficiency_credits",
    "EFFICIENCY",
    "make_cell",
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


def edge_forward(x: ad.Tensor, code, params=None) -> ad.Tensor:
    """Weighted sum of op outputs along one edge, recorded as one op.

    `code` is a K-vector of op weights: an edge's row of the sampled
    straight-through codes in the search's logit substep, or a constant
    0/1 tensor in its weight substep and for a fixed network.  Constant
    zero weights skip their op entirely.  x is a (batch, dim) tensor.

    The output is sum_k code[k] * op_k(x), summed in op order, with each
    linear op computing act(x @ W + b) by its `ad.ACTIVATIONS` entry.  The
    backward repeats the arithmetic of the same sum recorded op by op (pick,
    multiply, add, matmul, activation), and x is listed once per op that
    reads it, in reverse op order, so its gradient accumulates in the same
    order too.

    Work whose result is known is skipped.  Where code[k] is exactly 1.0,
    the forward term is op_k(x) itself and the backward uses g itself, with
    no multiply.  Where code[k] is exactly 0.0, the identity op passes x no
    gradient, and a linear op whose W and b need none (the logit substep's
    constant view) computes neither its derivative nor its product for x.
    Each skipped contribution was exactly +-0, so every gradient equals the
    op chain's under ==; only the sign of an entry that is exactly zero may
    differ.  The output may share x's array, and the gradient for x may be
    g's; nothing here or downstream writes into either in place.
    """
    code, x = ad.as_tensor(code), ad.as_tensor(x)
    if code.data.shape != (len(OP_SET),) or x.data.ndim != 2:
        raise ad.ShapeMismatchError("edge-forward", (x.data.shape, code.data.shape))
    params = params if params is not None else [{} for _ in OP_SET]
    c, xd = code.data, x.data
    on_tape = code.requires_grad
    total = None
    runs = []  # (k, output, derivative, W, b) of each op that reads x
    for k, kind in enumerate(OP_SET):
        if (not on_tape and c[k] == 0.0) or kind.name == "zero":
            continue
        if kind.activation is None:  # identity
            a, deriv, W, b = xd, None, None, None
        else:
            act, deriv = ad.ACTIVATIONS[kind.activation]
            W, b = params[k]["W"], params[k]["b"]
            a = act(xd @ W.data + b.data)
        term = a if c[k] == 1.0 else c[k] * a
        total = term if total is None else total + term
        runs.append((k, a, deriv, W, b))
    if total is None:
        total = np.zeros_like(xd)
    runs.reverse()
    inputs = [code]
    for _, _, deriv, W, b in runs:
        inputs += [x] if deriv is None else [x, W, b]

    def back(g):
        gc = np.zeros(len(OP_SET)) if code.requires_grad else None
        out = [gc]
        for k, a, deriv, W, b in runs:
            ck = c[k]
            if gc is not None:
                gc[k] += (g * a).sum(axis=0).sum(axis=0)
            to_x = x.requires_grad and ck != 0.0
            if deriv is None:
                out.append((g if ck == 1.0 else g * ck) if to_x else None)
                continue
            if not (to_x or W.requires_grad or b.requires_grad):
                out += [None, None, None]
                continue
            gz = deriv(g if ck == 1.0 else g * ck, a)
            out += [gz @ W.data.T if x.requires_grad else None,
                    xd.T @ gz if W.requires_grad else None,
                    gz.sum(axis=0) if b.requires_grad else None]
        return out

    return ad.record(total, inputs, back)


def efficiency_credits() -> np.ndarray:
    """Static efficiency prior: softmax of negated op costs."""
    return ad.softmax_of(-np.array([op.cost for op in OP_SET], dtype=np.float64))


# the prior l every cell shares, checked once and read-only
EFFICIENCY = check_simplex(efficiency_credits(), "l")
EFFICIENCY.setflags(write=False)


@dataclass
class Cell:
    """An n-node DAG cell: the edges' sampling distribution and op weights.

    Row r of `logits` belongs to edge_list(n)[r].  Its softmax is the
    edge's effectiveness h; l (efficiency) is a static prior from op costs,
    shared by every edge; the edge's sampling vector is their lam-weighted
    convex mix.
    """

    n: int
    dim: int
    logits: ad.Tensor  # (E, K), requires grad
    l: np.ndarray  # (K,), on the simplex
    lam: float  # in [0, 1]
    params: dict  # (i, j) -> list of per-op parameter dicts
    output_rule: str = "sum"

    def mix(self) -> tuple:
        """Every edge's sampling vector lam * softmax(logits) + (1 - lam) * l
        as an (E, K) array, rows in edge_list order, with the map from its
        gradient to the logits'.  Nothing is checked or recorded: a draw
        checks p (`gumbel.draw_scores`)."""
        return self._mix(ad.softmax_of(self.logits.data))

    def probabilities(self) -> ad.Tensor:
        """`mix` as one (E, K) op; h must be on the simplex."""
        p, vjp = self._mix(check_simplex(ad.softmax_of(self.logits.data), "h"))
        return ad.record(p, (self.logits,), lambda g: (vjp(g),))

    def _mix(self, h):
        lam = self.lam
        return h * lam + self.l * (1.0 - lam), lambda g: ad.softmax_vjp(h, g * lam)

    def weight_tensors(self) -> list:
        out = []
        for e in edge_list(self.n):
            for p in self.params[e]:
                out.extend(p.values())
        return out


def make_cell(n, dim=8, lam=0.5, init_rng=None, output_rule="sum") -> Cell:
    """Build a cell with uniform logits and small random linear weights."""
    if output_rule not in ("sum", "concat"):
        raise ValueError(f"output_rule must be sum or concat, got {output_rule!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {lam}")
    init_rng = init_rng if init_rng is not None else np.random.default_rng(0)
    params = {}
    for e in edge_list(n):
        per_op = []
        for op in OP_SET:
            if op.activation is not None:
                per_op.append(
                    {
                        "W": ad.Tensor(
                            init_rng.normal(0.0, 1.0, (dim, dim)) / np.sqrt(dim),
                            requires_grad=True,
                        ),
                        "b": ad.Tensor(np.zeros(dim), requires_grad=True),
                    }
                )
            else:
                per_op.append({})
        params[e] = per_op
    return Cell(
        n=n, dim=dim,
        logits=ad.Tensor(np.zeros((num_edges(n), len(OP_SET))), requires_grad=True),
        l=EFFICIENCY, lam=lam, params=params, output_rule=output_rule,
    )


def cell_forward(cell: Cell, x_in: ad.Tensor, samples: dict) -> ad.Tensor:
    """Evaluate the cell: node j sums edge contributions from all i < j.

    `samples` maps every edge to its code, a K-vector tensor.  The output
    aggregates the non-input nodes by the cell's output rule.
    """
    for e in edge_list(cell.n):
        if e not in samples:
            raise ValueError(f"missing sample for edge {e}")
    nodes = [x_in]
    for j in range(1, cell.n):
        acc = None
        for i in range(j):
            term = edge_forward(nodes[i], samples[(i, j)], cell.params[(i, j)])
            acc = term if acc is None else ad.add(acc, term)
        nodes.append(acc)
    intermediates = nodes[1:]
    if len(intermediates) == 1:
        return intermediates[0]
    if cell.output_rule == "concat":
        return ad.concat(intermediates, axis=-1)
    out = intermediates[0]
    for t in intermediates[1:]:
        out = ad.add(out, t)
    return out


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
    than the op set's size, a bit that is not 0 or 1, an edge outside the
    cell or listed twice, a row of the wrong length, or an edge list that
    is not each of the cell's edges once raises ValueError.  The edges are
    checked before anything sized by n is built, so the file's own length
    bounds n."""
    doc = json.loads(text)
    try:
        n, k = _integer(doc["n"], "n"), _integer(doc["K"], "K")
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
