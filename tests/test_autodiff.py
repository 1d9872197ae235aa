"""Tape behavior of the autodiff core, and gradient checks of its ops and
of the reference op chain (`opchain`)."""

import gc
import itertools
import pickle
import platform
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from egsearch import autodiff as ad
from egsearch import trainer as tr
from egsearch.config import RunConfig
import opchain as oc
from opchain import assert_grads_close, check_op, fd_grad, scalarize


# --- per-op gradient checks (100 random instances each) --------------------


def test_grad_add_broadcast():
    check_op(
        lambda ts: scalarize(oc.add(ts[0], ts[1])),
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))],
    )


def test_grad_multiply():
    check_op(
        lambda ts: scalarize(oc.multiply(ts[0], ts[1])),
        lambda rng: [rng.normal(size=(2, 5)), rng.normal(size=(2, 5))],
    )


def test_grad_matmul_2d():
    check_op(
        lambda ts: scalarize(oc.matmul(ts[0], ts[1])),
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
    )


def test_grad_relu_away_from_kink():
    def arrays(rng):
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-3] = 0.1  # keep FD probes off the kink
        return [x]

    check_op(lambda ts: scalarize(oc.relu(ts[0])), arrays)


def test_grad_tanh():
    check_op(lambda ts: scalarize(oc.tanh(ts[0])),
             lambda rng: [rng.normal(size=(2, 6))])


def test_grad_sigmoid():
    check_op(lambda ts: scalarize(oc.sigmoid(ts[0])),
             lambda rng: [rng.normal(size=7) * 3.0])


def masked_sigmoid(d):
    """The logistic function by boolean masks: 1 / (1 + exp(-d)) where
    d >= 0, exp(d) / (1 + exp(d)) elsewhere.  The reference for
    stable_sigmoid."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_INPUTS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(
        st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(d=SIGMOID_INPUTS)
def test_stable_sigmoid_equals_the_masked_formula_bit_for_bit(d):
    got = ad.stable_sigmoid(d)
    want = masked_sigmoid(d)
    assert isinstance(got, np.ndarray) and got.shape == d.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                 max_side=6),
                    elements=st.one_of(st.floats(),
                                       st.sampled_from([0.0, -0.0, np.nan, -np.nan]))))
def test_relu_equals_the_masked_formula_bit_for_bit(z):
    # NaN maps to 0.0 and -0.0 to +0.0, as in the masked form
    got = oc.relu(ad.Tensor(z)).data
    want = np.where(z > 0.0, z, 0.0)
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_stable_sigmoid_maps_nan_to_nan_and_keeps_shapes():
    d = np.array([np.nan, -np.nan, 0.0, -0.0])
    got = ad.stable_sigmoid(d)
    assert np.all(np.isnan(got[:2])) and np.array_equal(got[2:], [0.5, 0.5])
    assert ad.stable_sigmoid(np.array([[]])).shape == (1, 0)
    assert ad.stable_sigmoid(np.array(-0.0)).shape == ()


def test_grad_softmax():
    check_op(lambda ts: scalarize(oc.softmax(ts[0])),
             lambda rng: [rng.normal(size=(3, 5))])


# (K,), (E, K) and (E, M, K): one edge, every edge, every edge's M components
SOFTMAX_SHAPES = st.one_of(
    st.tuples(st.integers(1, 6)),
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
    st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_softmax_pair_equals_the_inline_formulas_bit_for_bit(data):
    shape = data.draw(SOFTMAX_SHAPES)
    # large magnitudes, and -inf where a probability is zero; every row keeps
    # one finite entry, as every row of a simplex has one nonzero entry
    z = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(-1e300, 1e300), st.just(-np.inf))))
    z[..., 0] = np.where(np.isneginf(z).all(axis=-1), 0.0, z[..., 0])
    g = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e150, 1e150)))

    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want_y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * want_y).sum(axis=-1, keepdims=True)
    want_g = want_y * (g - dot)

    def bits(a):
        return np.asarray(a).view(np.int64)

    y = ad.softmax_of(z)
    assert np.array_equal(bits(y), bits(want_y))
    assert np.array_equal(bits(ad.softmax_vjp(y, g)), bits(want_g))
    with ad.Tape():
        out = oc.softmax(ad.Tensor(z, requires_grad=True))
    assert np.array_equal(bits(out.data), bits(want_y))
    assert np.array_equal(bits(out.node.backward_fn(g)[0]), bits(want_g))


def test_grad_log():
    check_op(lambda ts: scalarize(oc.log(ts[0])),
             lambda rng: [rng.uniform(0.2, 3.0, size=6)])


def test_grad_exp():
    check_op(lambda ts: scalarize(oc.exp(ts[0])),
             lambda rng: [rng.normal(size=(2, 3))])


def test_grad_maximum_away_from_ties():
    def arrays(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        close = np.abs(a - b) < 1e-3
        b[close] += 0.5  # FD step must not flip the winner
        return [a, b]

    check_op(lambda ts: scalarize(oc.maximum(ts[0], ts[1])), arrays)


def test_grad_concat():
    check_op(
        lambda ts: scalarize(oc.concat([ts[0], ts[1]], axis=1)),
        lambda rng: [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))],
    )


def test_grad_mean():
    check_op(lambda ts: oc.mean(ts[0]), lambda rng: [rng.normal(size=(4, 4))])


def test_grad_cross_entropy():
    labels = np.array([0, 2, 1, 2])
    check_op(
        lambda ts: ad.cross_entropy_with_logits(ts[0], labels),
        lambda rng: [rng.normal(size=(4, 3)) * 2.0],
    )


def test_grad_scale():
    check_op(lambda ts: scalarize(oc.scale(ts[0], -2.5)),
             lambda rng: [rng.normal(size=5)])


def test_grad_pick():
    check_op(lambda ts: oc.pick(ts[0], 3), lambda rng: [rng.normal(size=6)])


def test_grad_two_layer_network():
    # random 2-layer net: every weight checked against central differences
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    for _ in range(20):
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))

        def loss_fn(tensors):
            h = oc.tanh(oc.matmul(ad.Tensor(x), tensors[0]))
            return ad.cross_entropy_with_logits(oc.matmul(h, tensors[1]), labels)

        t1 = ad.Tensor(w1, requires_grad=True)
        t2 = ad.Tensor(w2, requires_grad=True)
        with ad.Tape():
            grads = ad.backward(loss_fn([t1, t2]))

        def f1(v):
            with ad.Tape():
                return float(loss_fn([ad.Tensor(v), ad.Tensor(w2)]).data)

        def f2(v):
            with ad.Tape():
                return float(loss_fn([ad.Tensor(w1), ad.Tensor(v)]).data)

        assert_grads_close(grads[t1], fd_grad(f1, w1))
        assert_grads_close(grads[t2], fd_grad(f2, w2))


# --- structural behavior ----------------------------------------------------


def test_trivial_square_gradient():
    x = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape():
        loss = oc.mean(oc.multiply(x, x))
        grads = ad.backward(loss)
    assert grads[x] == pytest.approx(6.0)


def test_softmax_sum_has_zero_gradient():
    z = ad.Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    with ad.Tape():
        s = oc.softmax(z)
        loss = oc.scale(oc.mean(s), 3.0)  # == sum(softmax(z)) == 1
        grads = ad.backward(loss)
    assert np.allclose(grads[z], 0.0, atol=1e-12)


def test_add_example_values():
    out = oc.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])
    assert np.array_equal(oc.relu(ad.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.allclose(oc.softmax(ad.Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_simplex_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.normal(size=(4, 9)) * rng.uniform(0.1, 50)
        out = oc.softmax(ad.Tensor(z)).data
        assert np.all(out >= 0.0)
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)


def test_reused_tensor_accumulates_gradient():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.Tape():
        loss = oc.mean(oc.add(oc.multiply(x, x), x))  # mean(x^2 + x)
        grads = ad.backward(loss)
    assert np.allclose(grads[x], (2.0 * x.data + 1.0) / 2.0)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(6, 4))
    x = rng.normal(size=(8, 6))
    labels = rng.integers(0, 4, size=8)

    def run():
        t = ad.Tensor(w.copy(), requires_grad=True)
        with ad.Tape():
            h = oc.relu(oc.matmul(ad.Tensor(x), t))
            loss = ad.cross_entropy_with_logits(h, labels)
            g = ad.backward(loss)[t]
        return g

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_grad_shapes_match_tensors():
    a = ad.Tensor(np.zeros((3, 1)), requires_grad=True)
    b = ad.Tensor(np.zeros((3, 4)), requires_grad=True)
    with ad.Tape():
        grads = ad.backward(oc.mean(oc.add(a, b)))
    assert grads[a].shape == (3, 1)
    assert grads[b].shape == (3, 4)


def test_shape_mismatch_names_kind_and_shapes():
    with pytest.raises(ad.ShapeMismatchError) as ei:
        oc.add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))
    assert "add" in str(ei.value)
    assert "(3,)" in str(ei.value) and "(4,)" in str(ei.value)
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        oc.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))
    # matmul takes two matrices only: a vector operand is a mismatch too
    for a, b in (((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))):
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            oc.matmul(ad.Tensor(np.zeros(a)), ad.Tensor(np.zeros(b)))
    with pytest.raises(ad.ShapeMismatchError, match="concat"):
        oc.concat([ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3)))], axis=1)


def test_shape_mismatch_error_survives_pickle():
    # a forked baseline worker sends its error back pickled
    err = ad.ShapeMismatchError("matmul", ((2, 3), (4, 5)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ad.ShapeMismatchError and isinstance(back, ValueError)
    assert (back.kind, back.shapes, str(back)) == (err.kind, err.shapes, str(err))


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape():
        y = oc.multiply(x, x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(y)


def test_no_tape_node_without_requires_grad():
    with ad.Tape() as tape:
        oc.add(ad.Tensor([1.0]), ad.Tensor([2.0]))
        assert len(tape.nodes) == 0
        oc.add(ad.Tensor([1.0], requires_grad=True), ad.Tensor([2.0]))
        assert len(tape.nodes) == 1


def test_ops_outside_a_tape_are_constants():
    x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with ad.Tape() as tape:
        pass
    square = oc.multiply(x, x)  # no tape open
    y = oc.mean(square)
    assert tape.nodes == []
    for t in (square, y):
        assert t.node is None and not t.requires_grad
    assert np.array_equal(y.data, np.mean(x.data * x.data))


def test_backward_needs_the_loss_on_the_innermost_open_tape():
    x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="innermost open tape"):
        ad.backward(oc.mean(x))  # no tape open
    with ad.Tape():
        closed = oc.mean(oc.multiply(x, x))
    with pytest.raises(ValueError, match="innermost open tape"):
        ad.backward(closed)
    with ad.Tape(), pytest.raises(ValueError, match="innermost open tape"):
        ad.backward(closed)
    with ad.Tape():
        outer = oc.mean(oc.multiply(x, x))
        with ad.Tape(), pytest.raises(ValueError, match="innermost open tape"):
            ad.backward(outer)


def test_a_tensor_from_an_outer_tape_is_a_leaf_of_the_inner_sweep():
    x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with ad.Tape() as outer:
        h = oc.tanh(x)
        with ad.Tape() as inner:
            grads = ad.backward(oc.mean(oc.multiply(h, h)))
        # the inner sweep left the outer tape's node whole
        outer_grads = ad.backward(oc.mean(h))
    assert len(outer.nodes) == 2 and len(inner.nodes) == 2
    assert np.array_equal(grads[h], 0.5 * h.data + 0.5 * h.data)
    assert x not in grads  # the sweep stops at h
    assert np.array_equal(outer_grads[x], (1.0 - h.data * h.data) * 0.5)


def test_graph_freed_by_reference_counting():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = oc.mean(oc.tanh(oc.multiply(x, x)))
            ad.backward(loss)
        assert tape.nodes[-1].output is loss
        ref = weakref.ref(loss)
        del loss, tape
        assert ref() is None
    finally:
        gc.enable()


def test_a_node_keeps_the_inputs_it_is_given():
    # not copied into a tuple: CPython 3.11 never reuses a freed 20-item
    # tuple, so a network op with 20 inputs would leak one per step
    xs = [ad.Tensor(np.float64(i), requires_grad=True) for i in range(20)]
    with ad.Tape():
        out = ad.record(np.float64(0.0), xs, lambda g: [g * i for i in range(20)])
        assert out.node.inputs is xs
        grads = ad.backward(out)
    assert [float(grads[x]) for x in xs[1:]] == list(range(1, 20))


def test_the_sweep_frees_each_activation_as_it_goes():
    # the first op's backward runs last: by then the tanh's saved output is
    # gone, though the loss is still held
    x = ad.Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    alive = []
    gc.collect()
    gc.disable()
    try:
        with ad.Tape():
            h = ad.record(2.0 * x.data, (x,),
                          lambda g: (alive.append(activation() is not None) or 2.0 * g,))
            a = oc.tanh(h)
            activation = weakref.ref(a.data)
            loss = oc.mean(a)
            del a, h
            grads = ad.backward(loss)
        assert alive == [False]
        assert activation() is None and loss.data.shape == ()
        assert list(grads) == [x]
    finally:
        gc.enable()


def test_a_swept_tape_cannot_be_swept_again():
    x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with ad.Tape():
        h = oc.tanh(x)
        loss = oc.mean(oc.multiply(h, h))
        first = ad.backward(loss)
        with pytest.raises(ValueError, match="swept once"):
            ad.backward(loss)
        # a new loss that reaches a released node is refused too
        with pytest.raises(ValueError, match="swept once"):
            ad.backward(oc.mean(h))
    assert list(first) == [x]


def test_tape_nodes_in_topological_order():
    x = ad.Tensor(np.ones(4), requires_grad=True)
    with ad.Tape() as tape:
        h = oc.tanh(x)
        g = oc.sigmoid(h)
        oc.mean(oc.add(h, g))
    order = {node.output: i for i, node in enumerate(tape.nodes)}
    for i, node in enumerate(tape.nodes):
        for t in node.inputs:
            if t in order:
                assert order[t] < i


def test_log_of_zero_keeps_unselected_grad_finite():
    # the -inf branch gets zero upstream grad, result must stay finite
    x = ad.Tensor(np.array([0.0, 2.0]), requires_grad=True)
    with ad.Tape():
        grads = ad.backward(oc.pick(oc.log(x), 1))
    assert np.all(np.isfinite(grads[x]))
    assert grads[x][1] == pytest.approx(0.5)
    assert grads[x][0] == 0.0


# --- the tape orders the sweep --------------------------------------------


@pytest.fixture
def indexed_nodes(monkeypatch):
    """Give each node a process-wide recording index, as nodes had before
    the tape ordered the sweep."""
    counter = itertools.count()

    class IndexedNode(ad.TapeNode):
        __slots__ = ("idx",)

        def __init__(self, *args):
            super().__init__(*args)
            self.idx = next(counter)

    monkeypatch.setattr(ad, "TapeNode", IndexedNode)


def reference_backward(loss):
    """The sweep before the tape ordered it: collect the nodes below the
    loss by a DFS, sort them by recording index, descending, and sweep.
    Returns the swept nodes and {tensor: gradient}."""
    nodes = []
    seen = set()
    stack = [loss.node] if loss.node is not None else []
    while stack:
        node = stack.pop()
        if node.idx in seen:
            continue
        seen.add(node.idx)
        nodes.append(node)
        for t in node.inputs:
            if t.node is not None and t.node.idx not in seen:
                stack.append(t.node)
    nodes.sort(key=lambda n: n.idx, reverse=True)

    grads = {id(loss): np.ones((), dtype=np.float64)}
    tensors = {id(loss): loss}
    for node in nodes:
        g = grads.get(id(node.output))
        if g is None:
            continue
        for t, gin in zip(node.inputs, node.backward_fn(g)):
            if not t.requires_grad or gin is None:
                continue
            gin = np.asarray(gin, dtype=np.float64).reshape(t.data.shape)
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gin
            else:
                grads[key] = gin
                tensors[key] = t
    return nodes, {tensors[key]: g for key, g in grads.items()}


def assert_same_gradients(grads, ref, nodes):
    """`grads` is the reference's map restricted to the leaves of the sweep,
    bit for bit: no tensor that one of the swept `nodes` produced is in it."""
    inner = [t for t in ref if any(t.node is node for node in nodes)]
    assert inner and not any(t in grads for t in inner)
    leaves = {t: g for t, g in ref.items() if not any(t is i for i in inner)}
    assert grads.keys() == leaves.keys()
    for t, g in leaves.items():
        assert np.array_equal(grads[t], g)


def test_tape_sweep_matches_the_reference_on_a_branching_graph(indexed_nodes):
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with ad.Tape() as tape:
        h = oc.tanh(oc.matmul(x, w))
        side = oc.exp(h)  # a branch that does not reach the loss
        loss = oc.mean(oc.add(oc.multiply(h, h), oc.sigmoid(oc.matmul(x, w))))
        oc.relu(loss)  # recorded after the loss
        nodes, ref = reference_backward(loss)
        grads = ad.backward(loss)
    assert len(nodes) == len(tape.nodes) - 2
    assert side not in grads and x in grads and w in grads
    assert_same_gradients(grads, ref, nodes)
    # each swept node is released; the side branch and the node recorded
    # after the loss are not swept
    for node in tape.nodes:
        swept = any(node is n for n in nodes)
        assert (node.inputs is None and node.backward_fn is None) == swept


@pytest.mark.parametrize("reach", ["weights", "logits", "all"])
@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(nodes=7, M=4, output_rule="concat")],
                         ids=["default", "n7-m4-concat"])
def test_tape_sweep_matches_the_reference_on_a_substep(indexed_nodes, cfg, reach):
    # the network op frees what it saved as its backward runs, so each
    # sweep gets its own graph of the same substep, drawn from the same
    # random state
    dataset = tr.build_dataset(cfg)
    state = tr.build_state(cfg, dataset)
    x, y = dataset.split("train")
    batch = (x[:cfg.batch_size], y[:cfg.batch_size])
    start = state.rng.clone()
    with ad.Tape() as ref_tape:
        loss, _ = tr.compute_loss(state, batch, reach=reach)
        nodes, ref = reference_backward(loss)
    state.rng = start
    with ad.Tape() as tape:
        loss, _ = tr.compute_loss(state, batch, reach=reach)
        grads = ad.backward(loss)
    # every node a substep records reaches the loss, so the tape reversed
    # is exactly the reference's sweep
    assert ref_tape.nodes == nodes[::-1]
    assert len(tape.nodes) == len(nodes)
    assert_same_gradients(grads, ref, nodes)


# --- pruning a constant input's gradient ----------------------------------


@pytest.mark.parametrize("op, shape_a, shape_b", [
    (oc.add, (3, 4), (4,)),
    (oc.multiply, (3, 4), (3, 1)),
    (oc.matmul, (3, 4), (4, 2)),
    (oc.maximum, (3, 4), (3, 4)),
])
def test_binary_backward_skips_a_constant_input(op, shape_a, shape_b):
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)

    def input_grads(a_grad, b_grad):
        with ad.Tape():
            out = op(ad.Tensor(a, requires_grad=a_grad), ad.Tensor(b, requires_grad=b_grad))
        g = np.cos(np.arange(out.data.size, dtype=np.float64)).reshape(out.shape)
        return out.node.backward_fn(g)

    ga, gb = input_grads(True, True)
    assert ga is not None and gb is not None
    const_a = input_grads(False, True)
    assert const_a[0] is None and np.array_equal(const_a[1], gb)
    const_b = input_grads(True, False)
    assert const_b[1] is None and np.array_equal(const_b[0], ga)


def test_keep_heap_takes_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt settings are glibc's")
    assert ad._keep_heap() is True
