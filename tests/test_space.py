"""Code/network bijection and relaxed forward evaluation of cells."""

import dataclasses
import gc
import json
import re
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch import autodiff as ad
from egsearch import space
from egsearch import trainer as tr
from egsearch.config import RunConfig
from egsearch.gumbel import RngState
from egsearch.space import (
    OP_SET,
    ArchitectureCode,
    Codes,
    NetworkPlan,
    decode,
    edge_list,
    encode,
    export_architecture,
    export_dot,
    make_network,
    network_forward,
    num_edges,
    parse_architecture,
)
import opchain as oc
from opchain import chain_mix, egs_sample, mix_op, weighted


def random_code(n, k, rng):
    bits = rng.integers(0, 2, size=(num_edges(n), k), dtype=np.uint8)
    return ArchitectureCode(n=n, K=k, bits=bits)


# --- op set -------------------------------------------------------------------


def test_op_set_names_and_costs():
    names = [op.name for op in OP_SET]
    assert names == ["zero", "identity", "linear_relu", "linear_tanh", "linear_sigmoid"]
    costs = {op.name: op.cost for op in OP_SET}
    assert costs["zero"] == 0.0
    assert costs["identity"] == 0.1
    assert all(costs[f"linear_{a}"] == 1.0 for a in ("relu", "tanh", "sigmoid"))


def test_zero_and_identity_semantics():
    net = make_test_network(2, dim=3)
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    zero, identity = np.eye(5)[:2]
    assert np.array_equal(bare_forward(net, x, one_edge(zero)).data, np.zeros((2, 3)))
    assert np.array_equal(bare_forward(net, x, one_edge(identity)).data, x.data)


def test_efficiency_credits_prefer_cheap_ops():
    l = space.efficiency_credits()
    assert abs(l.sum() - 1.0) <= 1e-12
    assert l[0] > l[1] > l[2]
    assert l[2] == l[3] == l[4]


def test_efficiency_prior_is_the_softmax_of_negated_costs_bit_for_bit():
    c = np.array([op.cost for op in OP_SET], dtype=np.float64)
    e = np.exp(-c + c.min())
    want = (e / e.sum()).view(np.int64)
    assert np.array_equal(space.efficiency_credits().view(np.int64), want)
    # the shared prior is that array, checked once and read-only
    assert np.array_equal(space.EFFICIENCY.view(np.int64), want)
    assert not space.EFFICIENCY.flags.writeable
    assert make_test_network(3).l is space.EFFICIENCY


# --- encode / decode -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_edge_op_names_agree_with_decode(n, seed):
    rng = np.random.default_rng(seed)
    code = random_code(n, len(OP_SET), rng)
    code.bits[rng.random(num_edges(n)) < 0.3] = 0  # some edges carry no op
    ops = dict(decode(code).edge_ops)
    names = space.edge_op_names(code)
    assert [e for e, _ in names] == edge_list(n)
    for e, joined in names:
        assert joined == "+".join(OP_SET[k].name for k in ops.get(e, ()))
        assert (joined == "") == (e not in ops)


def test_encode_empty_network():
    code = encode(NetworkPlan(n=3, K=2, edge_ops=()))
    assert code.bits.sum() == 0
    assert code.bits.shape == (3, 2)


def test_encode_single_assignment():
    # identity (op index 1) on the edge from the input to node 2 only
    code = encode(NetworkPlan(n=3, K=2, edge_ops=(((0, 2), (1,)),)))
    assert code.bit_count() == 1
    row = edge_list(3).index((0, 2))
    assert code.bits[row, 1] == 1


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError, match="edge"):
        encode(NetworkPlan(n=3, K=2, edge_ops=(((2, 1), (0,)),)))
    with pytest.raises(ValueError, match="op index"):
        encode(NetworkPlan(n=3, K=2, edge_ops=(((0, 1), (5,)),)))


def test_round_trip_plan_to_code_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n, k = 4, 5
        edge_ops = {}
        for e in edge_list(n):
            ks = tuple(np.flatnonzero(rng.integers(0, 2, size=k)))
            if len(ks):
                edge_ops[e] = tuple(int(x) for x in ks)
        plan = NetworkPlan(n=n, K=k, edge_ops=tuple(sorted(edge_ops.items())))
        assert decode(encode(plan)) == plan


def test_round_trip_code_exhaustive_n3_k2():
    count = 0
    for bits in product((0, 1), repeat=6):
        code = ArchitectureCode(n=3, K=2, bits=np.array(bits).reshape(3, 2))
        assert encode(decode(code)) == code
        count += 1
    assert count == 64


def test_round_trip_code_random_n7_k5():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        code = random_code(7, 5, rng)
        assert encode(decode(code)) == code


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(1, 8), data=st.data())
def test_decode_inverts_encode_for_any_n_and_k(n, k, data):
    edge_ops = []
    for e in edge_list(n):
        ks = data.draw(st.sets(st.integers(0, k - 1)))
        if ks:
            edge_ops.append((e, tuple(sorted(ks))))
    plan = NetworkPlan(n=n, K=k, edge_ops=tuple(edge_ops))
    assert decode(encode(plan)) == plan


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_encode_inverts_decode_for_any_n_and_k(n, k, seed):
    code = random_code(n, k, np.random.default_rng(seed))
    assert encode(decode(code)) == code


def decode_row_by_row(code):
    """The per-row formula `decode` must equal: each edge's set op indices,
    edges with none left out."""
    edge_ops = []
    for row, e in enumerate(edge_list(code.n)):
        ks = tuple(int(k) for k in np.flatnonzero(code.bits[row]))
        if ks:
            edge_ops.append((e, ks))
    return NetworkPlan(n=code.n, K=code.K, edge_ops=tuple(edge_ops))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 9), k=st.integers(1, 16), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_decode_equals_the_per_row_formula(n, k, density, seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((num_edges(n), k)) < density).astype(np.uint8)
    bits[rng.random(num_edges(n)) < 0.2] = 0  # empty rows
    bits[rng.random(num_edges(n)) < 0.2] = 1  # all-ones rows
    code = ArchitectureCode(n=n, K=k, bits=bits)
    plan = decode(code)
    assert plan == decode_row_by_row(code)
    assert all(type(k) is int for _, ks in plan.edge_ops for k in ks)
    assert encode(plan) == code


@pytest.mark.parametrize("fill", [0, 1])
def test_decode_of_a_constant_code(fill):
    code = ArchitectureCode(n=5, K=16, bits=np.full((num_edges(5), 16), fill))
    assert decode(code) == decode_row_by_row(code)
    assert len(decode(code).edge_ops) == (num_edges(5) if fill else 0)


@pytest.mark.parametrize("edge_ops,message", [
    ((((2, 1), (0,)),), r"^edge \(2, 1\) out of range for n=3$"),
    ((((0, 3), (0,)),), r"^edge \(0, 3\) out of range for n=3$"),
    ((((0, 1), (5,)),), r"^op index out of range on edge \(0, 1\): \(5,\)$"),
    ((((0, 1), (1, -1)),), r"^op index out of range on edge \(0, 1\): \(1, -1\)$"),
    # edges are checked in plan order, each edge before its op indices
    ((((0, 1), (0, 7)), ((5, 6), (0,))), r"^op index out of range on edge \(0, 1\)"),
    ((((5, 6), (0,)), ((0, 1), (0, 7))), r"^edge \(5, 6\) out of range for n=3$"),
    # an op index must be an integer: 1.9 is not op 1
    ((((0, 1), (1.9,)),), r"^op index is not an integer on edge \(0, 1\): \(1.9,\)$"),
    ((((1, 2), (0, np.float64(1.0))),), r"^op index is not an integer on edge \(1, 2\)"),
])
def test_encode_names_what_is_out_of_range(edge_ops, message):
    with pytest.raises(ValueError, match=message):
        encode(NetworkPlan(n=3, K=2, edge_ops=edge_ops))


def test_encode_keeps_a_repeated_edges_last_entry():
    plan = NetworkPlan(n=3, K=2, edge_ops=(((0, 1), (0,)), ((1, 2), (0, 1)), ((0, 1), (1,))))
    assert encode(plan).bits.tolist() == [[0, 1], [0, 0], [1, 1]]
    # an earlier entry is dropped before it is checked
    plan = NetworkPlan(n=3, K=2, edge_ops=(((0, 1), (9,)), ((0, 1), (0,))))
    assert encode(plan).bits.tolist() == [[1, 0], [0, 0], [0, 0]]


def test_code_bits_must_be_zero_or_one():
    with pytest.raises(ValueError, match="bits must be 0/1"):
        ArchitectureCode(n=3, K=2, bits=np.array([[0, 1], [2, 0], [0, 0]]))
    # neither truncated nor wrapped by the cast to uint8
    for bad in ([[0.5, 1.7]], [[0, 256]], [[-1, 0]], [[np.nan, 1.0]], [[1.0, 1e-300]]):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            ArchitectureCode(n=2, K=2, bits=np.array(bad))
    for good in ([[True, False]], [[1.0, 0.0]], [[1, 0]], np.array([[0, 1]], dtype=np.int8)):
        assert ArchitectureCode(n=2, K=2, bits=np.array(good)).bits.tolist() == [
            [int(b) for b in np.array(good)[0]]]
        assert ArchitectureCode(n=2, K=2, bits=np.array(good)).bits.dtype == np.uint8
    with pytest.raises(ValueError, match="bits shape"):
        ArchitectureCode(n=3, K=2, bits=np.zeros((2, 2)))


# --- one edge of the network op --------------------------------------------------


def make_test_network(n=3, dim=4, seed=0, **cfg):
    """A network on dim-wide inputs with two classes; its edges' weights are
    the first draws of `default_rng(seed)`."""
    return make_network(dim, 2, RunConfig(nodes=n, dim=dim, **cfg), np.random.default_rng(seed))


def identity_layers(net):
    """`net` with a projection and a head that pass their input on as it
    is: identity matrices and zero biases, constants.  x @ I + 0 is x itself
    for finite x, so with them `network_forward` returns the cell's own
    output."""
    dim = net.w_in.shape[1]
    out_dim = dim * (net.n - 1 if net.output_rule == "concat" else 1)
    (w_in, b_in), (w_out, b_out) = ((ad.Tensor(np.eye(d)), ad.Tensor(np.zeros(d)))
                                    for d in (dim, out_dim))
    return dataclasses.replace(net, w_in=w_in, b_in=b_in, w_out=w_out, b_out=b_out)


def bare_forward(net, x, codes):
    """The cell's output for x, through `network_forward` with identity
    layers."""
    return network_forward(identity_layers(net), x, codes)


def one_edge(code, requires_grad=False):
    """The codes of a 2-node cell, whose one edge carries the K-vector
    `code`."""
    return Codes(2, ad.Tensor(np.asarray(code, dtype=np.float64)[None],
                              requires_grad=requires_grad))


def test_edge_forward_zero_code_is_zero():
    net = make_test_network(n=2)
    x = ad.Tensor(np.random.default_rng(2).normal(size=(5, 4)))
    out = bare_forward(net, x, one_edge(np.zeros(5)))
    assert np.array_equal(out.data, np.zeros((5, 4)))


def test_edge_forward_identity_only():
    net = make_test_network(n=2)
    x = ad.Tensor(np.random.default_rng(3).normal(size=(5, 4)))
    out = bare_forward(net, x, one_edge([0.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(out.data, x.data)


def test_edge_forward_residual_pair_matches_hand_build():
    # identity + linear_relu = x + relu(x W + b) with the same weights
    net = make_test_network(n=2)
    params = net.params[(0, 1)]
    x = ad.Tensor(np.random.default_rng(4).normal(size=(6, 4)))
    out = bare_forward(net, x, one_edge([0.0, 1.0, 1.0, 0.0, 0.0]))
    w, b = params[2]["W"].data, params[2]["b"].data
    hand = x.data + np.maximum(x.data @ w + b, 0.0)
    assert np.allclose(out.data, hand, atol=1e-12)


def test_edge_forward_single_forced_bit_reduces_to_plain_op():
    # one bit per edge is the constrained special case: a single-op edge
    net = make_test_network(n=2)
    x = np.random.default_rng(5).normal(size=(3, 4))
    for k, op in enumerate(OP_SET):
        code = np.zeros(5)
        code[k] = 1.0
        out = bare_forward(net, x, one_edge(code))
        p = net.params[(0, 1)][k]
        z = x @ p["W"].data + p["b"].data if "W" in p else None
        direct = {
            "zero": lambda: np.zeros_like(x),
            "identity": lambda: x,
            "linear_relu": lambda: np.maximum(z, 0.0),
            "linear_tanh": lambda: np.tanh(z),
            "linear_sigmoid": lambda: 1.0 / (1.0 + np.exp(-z)),
        }[op.name]()
        assert np.allclose(out.data, direct, atol=1e-15)


def test_edge_forward_gradient_reaches_logits_and_weights():
    net = make_test_network(n=2)
    x = ad.Tensor(np.random.default_rng(6).normal(size=(4, 4)))
    logits = ad.Tensor(np.zeros((1, 5)), requires_grad=True)
    saw_linear = False
    for seed in range(10):
        with ad.Tape():
            sample = egs_sample(oc.softmax(logits), 2, 0.5, RngState(seed))
            out = bare_forward(net, x, Codes(2, sample.hard))
            grads = ad.backward(oc.mean(out))
        # the straight-through path always carries gradient to the logits
        assert logits in grads
        assert np.all(np.isfinite(grads[logits]))
        w = net.params[(0, 1)][2]["W"]
        if sample.hard.data[0, 2] == 1.0:  # relu branch active, weights see grads
            saw_linear = True
            assert np.any(grads[w] != 0.0)
    assert saw_linear


def chain_edge_forward(x, code, params):
    """The edge recorded op by op (pick, multiply, add, and matmul, add and
    activation for a linear op): the reference for the network op's edge
    kernel."""
    on_tape = code.node is not None or code.requires_grad
    acts = {"linear_relu": oc.relu, "linear_tanh": oc.tanh,
            "linear_sigmoid": oc.sigmoid}
    total = None
    for k, kind in enumerate(OP_SET):
        if not on_tape and code.data[k] == 0.0:
            continue
        if kind.name == "zero":
            a = ad.Tensor(np.zeros_like(x.data))
        elif kind.name == "identity":
            a = x
        else:
            a = acts[kind.name](oc.add(oc.matmul(x, params[k]["W"]), params[k]["b"]))
        term = oc.multiply(oc.pick(code, k), a)
        total = term if total is None else oc.add(total, term)
    return total if total is not None else ad.Tensor(np.zeros_like(x.data))


def chain_network_forward(net, x, codes):
    """The network recorded op by op: the projection's matmul and add,
    `chain_edge_forward` per edge on its row picked from the code tensor,
    node sums by add in ascending i, the output rule (adds, a concat, or the
    one node) and the head's matmul and add.  The reference for the
    one-node `network_forward`."""
    row = {e: r for r, e in enumerate(edge_list(net.n))}
    nodes = [oc.add(oc.matmul(ad.as_tensor(x), net.w_in), net.b_in)]
    for j in range(1, net.n):
        acc = None
        for i in range(j):
            code = oc.pick(codes.tensor, row[(i, j)])
            term = chain_edge_forward(nodes[i], code, net.params[(i, j)])
            acc = term if acc is None else oc.add(acc, term)
        nodes.append(acc)
    inner = nodes[1:]
    if len(inner) == 1:
        out = inner[0]
    elif net.output_rule == "concat":
        out = oc.concat(inner, axis=-1)
    else:
        out = inner[0]
        for t in inner[1:]:
            out = oc.add(out, t)
    return oc.add(oc.matmul(out, net.w_out), net.b_out)


def edge_params(net, edge, on_tape):
    return [{name: ad.Tensor(t.data, requires_grad=on_tape) for name, t in op.items()}
            for op in net.params[edge]]


def assert_fused_equals_chain(net, x, codes, weights, extra=()):
    # x feeds the network and the loss itself, node 0 feeds two edges, and
    # node 1 feeds an edge and the output, so each gradient accumulates from
    # more than one place; the code tensor's gradient is held to the sum of
    # the chain's per-edge row picks
    tensors = [x, codes.tensor, *extra, *net.weights()]
    results = []
    for forward in (network_forward, chain_network_forward):
        with ad.Tape():
            out = forward(net, x, codes)
            loss = oc.add(oc.mean(oc.multiply(out, weights)), oc.mean(x))
            grads = ad.backward(loss) if loss.requires_grad else {}
        results.append((out.data, [grads.get(t) for t in tensors]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert np.array_equal(fused, chain)
    for t, f, c in zip(tensors, fused_grads, chain_grads):
        assert (f is None) == (c is None), t
        if c is not None:
            assert f.shape == c.shape and np.array_equal(f, c), t


def chain_test_network(rng, seed, batch, w_grad):
    """A 3-node network whose op weights, and head, are on the tape or not,
    and whose projection is constant, for the fused-against-chain tests."""
    net = make_test_network(n=3, dim=6, seed=seed)
    return dataclasses.replace(
        net, params={e: edge_params(net, e, w_grad) for e in edge_list(3)},
        w_in=ad.Tensor(rng.normal(size=(6, 6))), b_in=ad.Tensor(rng.normal(size=6)),
        w_out=ad.Tensor(rng.normal(size=(6, 3)), requires_grad=w_grad),
        b_out=ad.Tensor(rng.normal(size=3), requires_grad=w_grad),
    ), ad.Tensor(rng.normal(size=(batch, 3)))


@pytest.mark.parametrize("x_grad,code_grad,w_grad", list(product((False, True), repeat=3)))
def test_fused_edge_equals_the_op_chain_bit_for_bit(x_grad, code_grad, w_grad):
    # outputs and every gradient equal to the op-by-op chain, for every hard
    # code, with each of x, the code and the weights constant or on the tape
    rng = np.random.default_rng(31)
    net, weights = chain_test_network(rng, 3, 7, w_grad)
    x = ad.Tensor(rng.normal(size=(7, 6)), requires_grad=x_grad)
    for bits in product((0.0, 1.0), repeat=5):
        rows = (bits, bits[::-1], bits[2:] + bits[:2])
        codes = Codes(3, ad.Tensor(np.array(rows), requires_grad=code_grad))
        assert_fused_equals_chain(net, x, codes, weights)


@pytest.mark.parametrize("x_grad,w_grad", list(product((False, True), repeat=2)))
def test_fused_edge_equals_the_op_chain_on_straight_through_rows(x_grad, w_grad):
    rng = np.random.default_rng(32)
    net, weights = chain_test_network(rng, 4, 5, w_grad)
    x = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=x_grad)
    logits = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    for seed in range(4):
        with ad.Tape():
            sample = egs_sample(oc.softmax(logits), 2, 0.5, RngState(seed))
            # the straight-through rows were recorded on this outer tape, so
            # the code tensor is a leaf of each inner sweep, and its gradient
            # is compared as it is
            assert_fused_equals_chain(net, x, Codes(3, sample.hard), weights, extra=(logits,))


def count_derivatives(monkeypatch):
    """Make each activation's derivative log its name."""
    calls = []
    for name, (act, deriv) in list(ad.ACTIVATIONS.items()):
        def counted(g, a, deriv=deriv, name=name):
            calls.append(name)
            return deriv(g, a)
        monkeypatch.setitem(ad.ACTIVATIONS, name, (act, counted))
    return calls


def log_edge_backs(monkeypatch):
    """Make the edge kernel's backward log, per call, the gradient g it was
    given, the code's gradient row, the gradients it appended (W's and b's
    of each linear op in reverse op order) and x's contributions it
    returned."""
    logged = []
    edge_back = space._edge_back

    def logging(g, c, gc, xd, x_grad, runs, grads):
        start = len(grads)
        to_x = edge_back(g, c, gc, xd, x_grad, runs, grads)
        logged.append((g, gc, grads[start:], to_x))
        return to_x

    monkeypatch.setattr(space, "_edge_back", logging)
    return logged


@pytest.mark.parametrize("w_grad", [False, True])
def test_a_zero_bit_op_passes_x_no_gradient(monkeypatch, w_grad):
    # the code is on the tape, as in the logit substep.  Code entry 0.0: the
    # identity op and a linear op with constant W and b return None and
    # compute no derivative; with W on the tape its derivative still runs.
    # Code entry 1.0: the identity op hands x the output gradient itself.
    calls = count_derivatives(monkeypatch)
    logged = log_edge_backs(monkeypatch)
    net = make_test_network(n=2)
    net.params[(0, 1)] = edge_params(net, (0, 1), w_grad)
    x = ad.Tensor(np.random.default_rng(12).normal(size=(3, 4)), requires_grad=True)
    g = np.random.default_rng(13).normal(size=(3, 4))
    for bits, x_grads, derivatives in (
        ([0, 0, 1, 0, 1], [True, False, True, False], ["sigmoid", "relu"]),
        ([1, 1, 0, 1, 0], [False, True, False, True], ["tanh"]),
    ):
        with ad.Tape():
            out = bare_forward(net, x, one_edge(bits, requires_grad=True))
        calls.clear()
        logged.clear()
        out.node.backward_fn(g)
        [(g_edge, gc, grads, to_x)] = logged
        assert gc is not None
        # sigmoid, tanh, relu (each x, W, b), then identity
        for r, on in enumerate(x_grads):
            if r == 3:
                assert (to_x[3] is g_edge) if on else to_x[3] is None
                continue
            gx, gw, gb = to_x[r], *grads[2 * r:2 + 2 * r]
            assert (gx is not None) == (on or w_grad)
            assert (gw is not None) == (gb is not None) == w_grad
        if w_grad:
            assert sorted(calls) == ["relu", "sigmoid", "tanh"]
        else:
            assert sorted(calls) == sorted(derivatives)


NETWORK_CELLS = [dict(nodes=4), dict(nodes=7, output_rule="concat"), dict(nodes=2)]
NETWORK_IDS = ["default", "n7-concat", "n2"]
FORWARDS = [tr.network_forward, chain_network_forward]


def assert_runs_equal(runs):
    """Two runs' (label, value, gradient list) records are equal under ==
    (a skipped zero term may change only the sign of a zero), and each
    gradient is present on both sides or neither."""
    assert len(runs[0]) == len(runs[1])
    for (label, value, fused), (_, chain_value, chain) in zip(*runs):
        assert np.array_equal(value, chain_value), label
        assert len(fused) == len(chain)
        for f, c in zip(fused, chain):
            assert (f is None) == (c is None), label
            if c is not None:
                assert np.array_equal(f, c), label


@pytest.mark.parametrize("cell_cfg", NETWORK_CELLS, ids=NETWORK_IDS)
def test_substep_gradient_maps_equal_the_op_chain(monkeypatch, cell_cfg):
    # every substep's loss and gradients with the one-node network equal
    # those of the network recorded op by op: for the logits, every weight
    # and the code tensor (every edge's row), and the state after each
    # search step
    cfg = RunConfig(seed=5, epochs=1, **cell_cfg)
    dataset = tr.build_dataset(cfg)
    x, y = dataset.split("valid")
    batch = (x[:cfg.batch_size], y[:cfg.batch_size])
    code_grads = []
    sample_edges = tr.sample_edges

    def tapped_sample_edges(state, relax):
        # the sweep returns leaf gradients only, and the relaxed codes are
        # not a leaf: they pass through an identity op whose backward keeps
        # the gradient the code tensor receives, and hands it on unchanged
        codes = sample_edges(state, relax)
        hard = codes.tensor
        if not hard.requires_grad:
            return codes
        return Codes(state.network.n, ad.record(hard.data, (hard,),
                                                lambda g: (code_grads.append(g) or g,)))

    monkeypatch.setattr(tr, "sample_edges", tapped_sample_edges)
    runs = []
    for forward in FORWARDS:
        monkeypatch.setattr(tr, "network_forward", forward)
        state = tr.build_state(cfg, dataset)
        seen = []
        for _ in range(3):
            for reach in ("weights", "logits", "all"):
                code_grads.clear()
                with ad.Tape():
                    loss, _ = tr.compute_loss(state, batch, reach=reach)
                    grads = ad.backward(loss)
                # the weight substep's codes are constants
                assert len(code_grads) == (0 if reach == "weights" else 1)
                seen.append((reach, loss.data,
                             [grads.get(t) for t in (state.network.logits, *state.weights())]
                             + code_grads))
            tr.search_step(state, batch, batch)
        seen.append(("end", state.network.logits.data, [t.data for t in state.weights()]))
        runs.append(seen)
    assert_runs_equal(runs)


@pytest.mark.parametrize("cell_cfg", NETWORK_CELLS, ids=NETWORK_IDS)
def test_network_op_equals_the_op_chain_on_fixed_and_real_valued_codes(monkeypatch, cell_cfg):
    # retrain's constant codes (every edge's bits random, so some edge has
    # none), trained and then evaluated off the tape; and real-valued codes
    # on the tape, the relaxation's rows as criterion 1 feeds them, for the
    # logits and every weight
    cfg = RunConfig(seed=6, epochs=1, retrain_epochs=2, **cell_cfg)
    dataset = tr.build_dataset(cfg)
    x, y = dataset.split("train")
    batch = (x[:cfg.batch_size], y[:cfg.batch_size])
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=(num_edges(cfg.nodes), len(OP_SET)), dtype=np.uint8)
    bits[0] = 0
    code = ArchitectureCode(n=cfg.nodes, K=len(OP_SET), bits=bits)
    make_network = tr.make_network
    runs = []
    for forward in FORWARDS:
        monkeypatch.setattr(tr, "network_forward", forward)
        made = []
        monkeypatch.setattr(tr, "make_network",
                            lambda *args: made.append(make_network(*args)) or made[-1])
        result = tr.retrain(code, dataset, cfg)
        seen = [("retrain", np.array([result.final_loss, result.train_acc,
                                      result.valid_acc, result.test_acc]),
                 [t.data for t in made[0].weights()])]
        state = tr.build_state(cfg, dataset)
        for seed in range(3):
            with ad.Tape():
                soft, _ = oc.relaxation(mix_op(state.network), cfg.M, 0.7, RngState(seed))
                codes = Codes(cfg.nodes, soft)
                assert not np.all((soft.data == 0.0) | (soft.data == 1.0))
                logits = tr.network_forward(state.network, batch[0], codes)
                loss = ad.cross_entropy_with_logits(logits, batch[1])
                grads = ad.backward(loss)
            seen.append(("soft", loss.data,
                         [grads.get(t) for t in (state.network.logits, *state.weights())]))
        runs.append(seen)
    assert_runs_equal(runs)


def record_activations(monkeypatch, name):
    """Make the activation `name` keep a weakref to each output it computes
    and, at each of its calls and each derivative call, the number of those
    outputs still alive."""
    refs, alive = [], []
    act, deriv = ad.ACTIVATIONS[name]

    def forward(z):
        alive.append(sum(r() is not None for r in refs))
        out = act(z)
        refs.append(weakref.ref(out))
        return out

    def derivative(g, a):
        alive.append(sum(r() is not None for r in refs))
        return deriv(g, a)

    monkeypatch.setitem(ad.ACTIVATIONS, name, (forward, derivative))
    return refs, alive


@pytest.mark.parametrize("reach", ["weights", "logits"])
def test_the_network_op_frees_each_edges_activations(monkeypatch, reach):
    # tanh on every edge, beside the identity, so no edge's output is its
    # activation.  Off the tape each activation dies with its edge.  The
    # backward does the edges in the reverse of the forward's order
    # (2,3 1,3 0,3 1,2 0,2 0,1), and each edge's activation dies once its
    # edge is done, so at an edge's derivative only the activations of it
    # and of the edges still to do are alive.
    cfg = RunConfig(seed=3, nodes=4)
    dataset = tr.build_dataset(cfg)
    state = tr.build_state(cfg, dataset)
    x = dataset.split("train")[0][:16]
    row = [1.0 if op.name in ("identity", "linear_tanh") else 0.0 for op in OP_SET]
    edges = edge_list(cfg.nodes)
    codes = Codes(cfg.nodes, np.array([row] * len(edges)))
    refs, alive = record_activations(monkeypatch, "tanh")
    tr.network_forward(state.network, x, codes)
    assert len(refs) == len(edges) and alive == [0] * len(edges)

    refs.clear()
    network = state.network if reach == "weights" else state.frozen
    with ad.Tape():
        if reach == "logits":
            codes = Codes(cfg.nodes, ad.Tensor(codes.tensor.data, requires_grad=True))
        out = tr.network_forward(network, x, codes)
        assert alive[len(edges):] == list(range(len(edges)))
        del alive[:2 * len(edges)]
        ad.backward(oc.mean(out))
    # with constant weights and node 0 constant, an edge out of node 0
    # computes no derivative: no gradient is due to x, W or b
    assert alive == {"weights": [6, 5, 4, 3, 2, 1], "logits": [6, 5, 3]}[reach]
    assert all(r() is None for r in refs)


def test_edge_forward_rejects_bad_shapes():
    # a code that is not a K-vector, and an input that is not a matrix
    with pytest.raises(ad.ShapeMismatchError, match=re.escape("((1, 4), (1, 5))")):
        one_edge(np.ones(4))
    net = make_test_network(n=2)
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        bare_forward(net, ad.Tensor(np.ones(4)), one_edge(np.ones(5)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fused_edge_gradients_match_finite_differences(k):
    # a real-valued code on the tape runs every op; check x, the code and the
    # W and b of the linear op with activation k
    rng = np.random.default_rng(40 + k)
    net = make_test_network(n=2, dim=3, seed=k)
    params = net.params[(0, 1)] = edge_params(net, (0, 1), True)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    code = ad.Tensor(rng.normal(size=5)[None], requires_grad=True)
    weights = rng.normal(size=(4, 3))
    z = x.data @ params[2]["W"].data + params[2]["b"].data
    assert np.min(np.abs(z)) > 1e-3  # away from the relu kink

    def value():
        return float((bare_forward(net, ad.Tensor(x.data), Codes(2, code.data))
                      .data * weights).sum())

    with ad.Tape():
        out = bare_forward(net, x, Codes(2, code))
        grads = ad.backward(oc.mean(oc.multiply(out, ad.Tensor(weights * out.data.size))))
    step = 1e-6
    for t in (x, code, params[k]["W"], params[k]["b"]):
        base = t.data
        for idx in np.ndindex(base.shape):
            vals = []
            for h in (step, -step):
                t.data = base.copy()
                t.data[idx] += h
                vals.append(value())
            t.data = base
            fd = (vals[0] - vals[1]) / (2 * step)
            g = grads[t][idx]
            assert abs(g - fd) <= max(1e-7, 1e-5 * abs(fd)), (k, t, idx, g, fd)


# --- the cell, through network_forward ------------------------------------------


def constant_samples(code: ArchitectureCode):
    return Codes(code.n, code.bits)


def test_cell_forward_all_zero_code():
    net = make_test_network(n=4)
    x = ad.Tensor(np.random.default_rng(8).normal(size=(3, 4)))
    code = ArchitectureCode(n=4, K=5, bits=np.zeros((6, 5), dtype=np.uint8))
    out = bare_forward(net, x, constant_samples(code))
    assert np.array_equal(out.data, np.zeros((3, 4)))


@pytest.mark.parametrize("shape", [(2, 5), (3, 4), (15,), (1, 3, 5)])
def test_codes_refuse_a_tensor_that_is_not_e_by_k(shape):
    with pytest.raises(ad.ShapeMismatchError,
                       match=re.escape(f"codes for n=3: incompatible shapes ({shape}, (3, 5))")):
        Codes(3, np.zeros(shape))


def test_codes_hold_the_tensor_and_view_its_rows_only_on_call():
    # building Codes makes no per-edge tensor; items() pairs the edges, in
    # edge_list order, with constant views of the tensor's rows
    t = ad.Tensor(np.random.default_rng(9).normal(size=(6, 5)), requires_grad=True)

    def tensors():
        return sum(isinstance(o, ad.Tensor) for o in gc.get_objects())

    before = tensors()
    codes = Codes(4, t)
    assert tensors() == before
    assert codes.n == 4 and codes.tensor is t
    items = list(codes.items())
    assert [e for e, _ in items] == edge_list(4)
    for r, (_, row) in enumerate(items):
        assert np.array_equal(row.data, t.data[r]) and np.shares_memory(row.data, t.data)
        assert row.node is None and not row.requires_grad


def test_cell_forward_refuses_codes_built_for_another_n():
    net = make_test_network(n=3)
    codes = Codes(4, np.zeros((6, 5)))
    assert [e for e, _ in codes.items()] == edge_list(4)
    with pytest.raises(ad.ShapeMismatchError,
                       match=re.escape("codes for the 3-node network: incompatible shapes "
                                       "((6, 5), (3, 5))")):
        bare_forward(net, ad.Tensor(np.zeros((2, 4))), codes)


def unrolled_oracle(net, x, code):
    """Independent numpy evaluation of the same DAG, node by node."""
    rows = {e: r for r, e in enumerate(edge_list(code.n))}

    def op_out(kind, params, v):
        if kind.name == "zero":
            return np.zeros_like(v)
        if kind.name == "identity":
            return v
        z = v @ params["W"].data + params["b"].data
        return {
            "linear_relu": lambda q: np.maximum(q, 0.0),
            "linear_tanh": np.tanh,
            "linear_sigmoid": lambda q: 1.0 / (1.0 + np.exp(-q)),
        }[kind.name](z)

    nodes = [x]
    for j in range(1, code.n):
        acc = np.zeros_like(x)
        for i in range(j):
            bits = code.bits[rows[(i, j)]]
            for k in np.flatnonzero(bits):
                acc = acc + op_out(OP_SET[k], net.params[(i, j)][k], nodes[i])
        nodes.append(acc)
    return np.sum(nodes[1:], axis=0)


def test_cell_forward_matches_unrolled_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        net = make_test_network(n=4, seed=100 + trial)
        code = random_code(4, 5, rng)
        x = rng.normal(size=(5, 4))
        out = bare_forward(net, ad.Tensor(x), constant_samples(code))
        assert np.allclose(out.data, unrolled_oracle(net, x, code), atol=1e-12)


def test_cell_forward_concat_rule():
    net = make_test_network(n=4, output_rule="concat")
    x = np.random.default_rng(10).normal(size=(3, 4))
    bits = np.zeros((6, 5), dtype=np.uint8)
    bits[:, 1] = 1  # identity everywhere
    code = ArchitectureCode(n=4, K=5, bits=bits)
    out = bare_forward(net, ad.Tensor(x), constant_samples(code))
    assert out.data.shape == (3, 12)


def test_cell_forward_acyclic_by_construction():
    # identity chain: each node must equal the sum of all earlier nodes,
    # which only holds if no node ever reads a later one
    net = make_test_network(n=4)
    x = np.random.default_rng(11).normal(size=(2, 4))
    bits = np.zeros((6, 5), dtype=np.uint8)
    bits[:, 1] = 1
    code = ArchitectureCode(n=4, K=5, bits=bits)
    out = bare_forward(net, ad.Tensor(x), constant_samples(code))
    # x1 = x, x2 = x + x1 = 2x, x3 = x + x1 + x2 = 4x, sum = 7x
    assert np.allclose(out.data, 7.0 * x, atol=1e-12)


# --- sampling probabilities --------------------------------------------------------


def mix_network(logits, l, lam):
    """A network whose edges' logits are the rows of `logits` (one edge, or
    the three of a 3-node cell) and whose efficiency prior is l."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return dataclasses.replace(make_test_network({1: 2, 3: 3}[len(logits)], lam=lam),
                               logits=ad.Tensor(logits, requires_grad=True),
                               l=np.asarray(l, dtype=np.float64))


def test_mix_degenerate_lambda_one():
    h = np.array([0.8, 0.2])
    out = mix_op(mix_network(np.log(h), [0.4, 0.6], 1.0))
    assert np.allclose(out.data[0], h, atol=1e-15)


def test_mix_arithmetic():
    out = mix_op(mix_network(np.log([0.8, 0.2]), [0.4, 0.6], 0.5))
    assert np.allclose(out.data[0], [0.6, 0.4], atol=1e-15)


def test_mix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="mixing weight"):
        make_test_network(2, lam=1.5)


def test_mix_differentiable_wrt_h():
    grads = []
    for lam in (0.5, 0.25):
        net = mix_network([0.3, -0.1, 0.2], np.full(3, 1 / 3), lam)
        with ad.Tape():
            p = mix_op(net)
            grads.append(ad.backward(oc.pick(oc.pick(p, 0), 0))[net.logits])
    assert np.any(grads[0] != 0.0)
    # lambda scales the h pathway linearly
    assert np.allclose(grads[1], 0.5 * grads[0], atol=1e-15)


def test_sampling_probabilities_equal_per_edge_mix_and_match_fd():
    # one (E, K) op: values and gradients bit for bit those of the per-edge
    # primitive chain (chain_mix), and central differences
    rng = np.random.default_rng(21)
    step = 1e-6
    for k in range(2, 9):
        for lam in (0.0, 0.3, 1.0):
            net = mix_network(rng.normal(0.0, 1.5, (3, k)), rng.dirichlet(np.ones(k)), lam)
            w = rng.normal(size=(3, k))

            with ad.Tape() as tape:
                p = mix_op(net)
                assert len(tape.nodes) == 1
                grads = ad.backward(weighted([oc.pick(p, r) for r in range(3)], w))
            rows = [ad.Tensor(z.copy(), requires_grad=True) for z in net.logits.data]
            with ad.Tape():
                ref = [chain_mix(z, net.l, lam) for z in rows]
                ref_grads = ad.backward(weighted(ref, w))
            const = mix_op(net)
            assert const.node is None and np.array_equal(const.data, p.data)
            assert grads[net.logits].shape == (3, k)
            base = net.logits.data
            for r in range(3):
                assert np.array_equal(p.data[r], ref[r].data)
                assert np.array_equal(grads[net.logits][r], ref_grads[rows[r]])
                for j in range(k):
                    vals = []
                    for h in (step, -step):
                        net.logits.data = base.copy()
                        net.logits.data[r, j] += h
                        out = mix_op(net)
                        vals.append(float((out.data * w).mean(axis=1).sum()))
                    net.logits.data = base
                    fd = (vals[0] - vals[1]) / (2 * step)
                    g = grads[net.logits][r, j]
                    assert abs(g - fd) <= max(1e-8, 1e-5 * abs(fd)), (k, lam, r, j)


def test_sampling_probabilities_reject_bad_inputs():
    with pytest.raises(ValueError, match="mixing weight"):
        make_test_network(3, lam=1.5)


def test_edge_probabilities_on_simplex():
    net = make_test_network()
    p = net.mix()[0]
    assert p.shape == (num_edges(net.n), len(OP_SET))
    assert np.all(p >= 0)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)


# --- exports ------------------------------------------------------------------------


def test_architecture_export_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        code = random_code(4, 5, rng)
        assert parse_architecture(export_architecture(code)) == code


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("n"), "missing key 'n'"),
    (lambda doc: doc["edges"][0].pop("bits"), "missing key 'bits'"),
    (lambda doc: doc.pop("ops"), "missing key 'ops'"),
    (lambda doc: doc.update(ops=[doc["ops"][k] for k in (0, 1, 4, 3, 2)]),
     r"ops are \['zero', 'identity', 'linear_sigmoid', 'linear_tanh', 'linear_relu'\], "
     r"the op set is \['zero', 'identity', 'linear_relu', 'linear_tanh', 'linear_sigmoid'\]"),
    (lambda doc: doc.update(ops="nonsense"), "ops are 'nonsense', the op set is"),
    (lambda doc: doc["edges"].append({"from": 5, "to": 9, "bits": [0] * 5}),
     r"edge \(5, 9\) is outside the 4-node cell"),
    (lambda doc: doc["edges"][2].update(bits=[1, 0, 0]), r"edge \(0, 3\) has 3 bits, K is 5"),
    (lambda doc: doc["edges"][0].update(bits=3), "malformed"),
    (lambda doc: doc.update(edges=5), "malformed"),
    (lambda doc: doc.update(n=3.9), "n must be an integer, got 3.9"),
    (lambda doc: doc.update(K="5"), "K must be an integer, got '5'"),
    (lambda doc: doc["edges"][1].update({"from": 0.0}), "from must be an integer"),
    (lambda doc: doc["edges"][0].update(bits=[0.5, 1.9, 0, 0, 0]),
     r"edge \(0, 1\) has bits \[0.5, 1.9, 0, 0, 0\], not each 0 or 1"),
    (lambda doc: doc["edges"][0].update(bits=[-1, 0, 0, 0, 0]), "not each 0 or 1"),
    (lambda doc: doc["edges"][0].update(bits=[256, 0, 0, 0, 0]), "not each 0 or 1"),
    (lambda doc: doc["edges"][0].update(bits=[None, 0, 0, 0, 0]), "not each 0 or 1"),
    (lambda doc: doc["edges"][0].update(bits=[True, 0, 0, 0, 0]), "not each 0 or 1"),
    (lambda doc: doc["edges"].append(dict(doc["edges"][3])), r"edge \(1, 2\) is listed twice"),
    (lambda doc: doc.update(n=1), "n is 1, a cell has at least 2 nodes"),
    (lambda doc: doc.update(K=100_000_000_000), "K is 100000000000, the op set has 5 ops"),
    (lambda doc: doc.update(K=-1), "K is -1, the op set has 5 ops"),
    (lambda doc: doc.update(n=100_000_000, edges=[]),
     "edges lists 0 edges, the 100000000-node cell has 4999999950000000"),
    (lambda doc: doc.update(edges={}), "edges lists 0 edges, the 4-node cell has 6"),
    (lambda doc: doc.update(edges=[]), "edges lists 0 edges, the 4-node cell has 6"),
    (lambda doc: doc["edges"].pop(4), "edges lists 5 edges, the 4-node cell has 6"),
])
def test_parse_architecture_names_what_is_malformed(edit, message):
    doc = json.loads(export_architecture(random_code(4, 5, np.random.default_rng(14))))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        parse_architecture(json.dumps(doc))


def test_export_deterministic_bytes():
    code = random_code(5, 5, np.random.default_rng(13))
    assert export_architecture(code) == export_architecture(code)


def test_dot_export_structure():
    bits = np.zeros((3, 5), dtype=np.uint8)
    bits[0, 1] = 1  # identity on (0,1)
    bits[2, 2] = 1  # linear_relu on (1,2)
    code = ArchitectureCode(n=3, K=5, bits=bits)
    dot = export_dot(code)
    assert dot.startswith("digraph")
    assert 'n0 -> n1 [label="identity"]' in dot
    assert 'n1 -> n2 [label="linear_relu"]' in dot
    assert "n0 -> n2" not in dot  # inactive edge not drawn
