"""Search loop, derivation, retraining, and baseline behavior.

The heaviest oracle here is a hand-written numpy twin of the fixed-code
training loop: same initialization, same batch stream, gradients derived
by hand on paper.  The rest pins determinism, the per-edge sampling law
against the exact code distribution, the derivation rules, and the
descent direction of the search itself.
"""

import gc
import re
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch import autodiff as ad
from egsearch import trainer as tr
from egsearch.config import RunConfig
from egsearch.data import Dataset
from egsearch.gumbel import RngState, marginal_inclusion_oracle
from egsearch.space import OP_SET, ArchitectureCode, edge_list, num_edges
from opchain import egs_sample

K = len(OP_SET)


def small_cfg(**kw):
    base = dict(dataset="spirals", dataset_n=200, epochs=5, dim=4, seed=0)
    base.update(kw)
    return RunConfig(**base)


def exact_code_distribution(p, m):
    """Brute-force P(code) over all K^M component pick sequences."""
    dist = {}
    for picks in product(range(len(p)), repeat=m):
        prob = 1.0
        code = [0] * len(p)
        for c in picks:
            prob *= p[c]
            code[c] = 1
        key = tuple(code)
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def one_edge_code(op_index):
    bits = np.zeros((1, K), dtype=np.uint8)
    bits[0, op_index] = 1
    return ArchitectureCode(n=2, K=K, bits=bits)


def nan_dataset():
    feats = np.ones((40, 2))
    feats[0, 0] = np.nan
    return Dataset(
        features=feats,
        labels=np.arange(40) % 2,
        splits={
            "train": np.arange(20),
            "valid": np.arange(20, 30),
            "test": np.arange(30, 40),
        },
        seed=0,
    )


# --- schedule and state ------------------------------------------------------


def test_tau_schedule_endpoints_and_monotone():
    cfg = RunConfig(tau_start=1.0, tau_end=0.1)
    taus = [tr._tau_at(cfg, 40, s) for s in range(45)]
    assert taus[0] == 1.0
    assert taus[39] == pytest.approx(0.1)
    assert taus[44] == pytest.approx(0.1)  # clamps past the last step
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    assert tr._tau_at(cfg, 1, 0) == 1.0


def test_network_shapes_for_both_output_rules():
    net = tr.make_network(2, 3, small_cfg(nodes=4), np.random.default_rng(0))
    assert net.w_in.shape == (2, 4)
    assert net.w_out.shape == (4, 3)
    # 3 linear ops with W and b on each of the 6 edges, plus the two heads
    assert len(net.weights()) == 4 + num_edges(4) * 6
    assert net.logits.shape == (num_edges(4), K)
    wide = tr.make_network(2, 3, small_cfg(nodes=4, output_rule="concat"),
                           np.random.default_rng(0))
    assert wide.w_out.shape == (4 * 3, 3)


def test_sample_edges_shape_histogram_and_constant_mode():
    cfg = small_cfg(nodes=4, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    with ad.Tape() as tape:
        samples = tr.sample_edges(state, relax=True)
    # one draw of E*M*K uniforms; one node on the logits, the codes, one
    # (E, K) tensor whose rows the edges view
    assert state.rng.position == num_edges(4) * 2 * K
    assert len(tape.nodes) == 1
    assert samples.tensor.node is tape.nodes[-1]
    assert samples.tensor.shape == (num_edges(4), K)
    assert [e for e, _ in samples.items()] == edge_list(4)
    for _, s in samples.items():
        assert set(np.unique(s.data)) <= {0.0, 1.0}
        assert 1 <= s.data.sum() <= 2
    assert sum(sum(c.values()) for c in state.histogram.values()) == num_edges(4)
    # told not to relax: the same draw as constants, nothing recorded
    twin = tr.build_state(cfg, tr.build_dataset(cfg))
    twin.rng = state.rng.clone()
    with ad.Tape():
        on_tape = tr.sample_edges(state, relax=True)
    with ad.Tape() as tape:
        constant = tr.sample_edges(twin, relax=False)
    assert tape.nodes == []
    assert not constant.tensor.requires_grad
    for (e, c), (f, t) in zip(constant.items(), on_tape.items(), strict=True):
        assert e == f and c.node is None and not c.requires_grad
        assert np.array_equal(c.data, t.data)
    assert twin.rng.position == state.rng.position
    assert state.histogram[(0, 1)] != {} and twin.code_counts.sum() == num_edges(4)


@pytest.mark.parametrize("cell", [dict(nodes=4, M=2), dict(nodes=6, M=3, lam=0.3)])
def test_weight_substep_draws_the_hard_codes_of_egs_sample(cell):
    # the weight substep draws only hard_code(draw_scores(...)): the codes
    # and the stream position of the full draw, step after step
    cfg = small_cfg(**cell)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    x, y = ds.split("train")
    xv, yv = ds.split("valid")
    for _ in range(5):
        ref_rng = state.rng.clone()
        with ad.Tape() as tape:
            _, samples = tr.compute_loss(state, (x[:32], y[:32]), reach="weights")
        want = egs_sample(state.network.mix()[0], cfg.M, state.tau, ref_rng).hard.data
        assert ref_rng.position == state.rng.position
        for r, (_, s) in enumerate(samples.items()):
            assert s.data.tobytes() == want[r].tobytes()
            assert s.node is None
        assert not any(t is state.network.logits for n in tape.nodes for t in n.inputs)
        tr.search_step(state, (x[:32], y[:32]), (xv[:32], yv[:32]))


def test_histogram_counts_every_drawn_code(monkeypatch):
    # code_counts is the per-draw tuple count of the old dict histogram
    cfg = small_cfg(nodes=4, M=2, epochs=2)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    want = {}
    real = tr.sample_edges

    def counting(state, relax):
        samples = real(state, relax)
        for e, s in samples.items():
            code = tuple(int(b) for b in s.data)
            want.setdefault(e, {})
            want[e][code] = want[e].get(code, 0) + 1
        return samples

    x, y = ds.split("train")
    assert state.histogram == {}
    monkeypatch.setattr(tr, "sample_edges", counting)
    for _ in range(20):
        tr.search_step(state, (x[:32], y[:32]), (x[32:64], y[32:64]))
    got = state.histogram
    assert got == want
    assert all(type(b) is int for counts in got.values() for code in counts for b in code)


# --- the search step ---------------------------------------------------------


def test_one_step_moves_weights_and_logits():
    cfg = small_cfg()
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    w_before = [t.data.copy() for t in state.weights()]
    a_before = state.network.logits.data.copy()
    x, y = ds.split("train")
    xv, yv = ds.split("valid")
    losses = tr.search_step(state, (x[:64], y[:64]), (xv[:50], yv[:50]))
    moved_w = sum(
        not np.array_equal(b, t.data) for b, t in zip(w_before, state.weights())
    )
    assert moved_w > 0
    assert not np.array_equal(a_before, state.network.logits.data)
    assert state.step == 1
    assert len(losses) == 2 and np.all(np.isfinite(losses))


def logit_substeps(**cell):
    """The full and the pruned logit substep over the same draw: for each,
    the tape node count, the loss, the logits' gradients and the sweep."""
    cfg = small_cfg(**cell)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    xv, yv = ds.split("valid")
    start = state.rng.clone()
    out = {}
    for reach in ("all", "logits"):
        state.rng = start.clone()
        with ad.Tape() as tape:
            loss, _ = tr.compute_loss(state, (xv[:50], yv[:50]), reach=reach)
            recorded = len(tape.nodes)
            grads = ad.backward(loss)
        out[reach] = (recorded, loss.data,
                      [grads[state.network.logits]], grads)
    return cfg, state, out["all"], out["logits"]


PRUNE_CELLS = [{}, {"nodes": 7, "output_rule": "concat"}]


@pytest.mark.parametrize("cell", PRUNE_CELLS)
def test_logit_substep_gradients_equal_the_full_sweep(cell):
    _, state, full, pruned = logit_substeps(**cell)
    assert pruned[1] == full[1]
    assert any(np.any(g != 0.0) for g in full[2])
    for a, b in zip(pruned[2], full[2]):
        assert np.array_equal(a, b)
    assert not any(t in pruned[3] for t in state.weights())


@pytest.mark.parametrize("cell", PRUNE_CELLS)
def test_logit_substep_records_no_weight_only_node(cell):
    # the sampler is one node, the network (projection, cell and head)
    # another, and the cross-entropy a third, with the weights constant or
    # not
    cfg, _, full, pruned = logit_substeps(**cell)
    assert pruned[0] == full[0] == 3


@pytest.mark.parametrize("cell", PRUNE_CELLS)
def test_search_logit_substep_records_the_sampler_the_network_and_the_loss(monkeypatch, cell):
    # in a search step the logit substep records exactly three nodes: the
    # sampler, whose one input is the logits and whose output is the codes
    # the network reads, the network, and the cross-entropy
    cfg = small_cfg(**cell)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    tapes = []
    backward = ad.backward

    def capture(loss):
        tapes.append([(n.inputs, n.output) for n in ad._tape_stack()[-1].nodes])
        return backward(loss)

    monkeypatch.setattr(ad, "backward", capture)
    x, y = ds.split("train")
    xv, yv = ds.split("valid")
    for _ in range(3):
        tr.search_step(state, (x[:32], y[:32]), (xv[:32], yv[:32]))
    assert [len(t) for t in tapes] == [2, 3] * 3
    for sampler, network, entropy in tapes[1::2]:
        assert len(sampler[0]) == 1 and sampler[0][0] is state.network.logits
        assert set(np.unique(sampler[1].data)) <= {0.0, 1.0}
        assert network[0][0] is sampler[1]
        assert len(entropy[0]) == 1 and entropy[0][0] is network[1]


def test_each_substep_and_retrain_step_records_its_nodes(monkeypatch):
    # a logit substep records the sampler, the network (reading the codes
    # as one tensor) and the cross-entropy; a weight substep and a retrain
    # step the network and the cross-entropy
    cfg = small_cfg(nodes=4)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    xv, yv = ds.split("valid")
    with ad.Tape() as tape:
        loss, codes = tr.compute_loss(state, (xv[:50], yv[:50]), reach="logits")
        sampler, network, entropy = tape.nodes
        assert sampler.inputs == (state.network.logits,)
        assert sampler.output is codes.tensor
        assert network.inputs[0] is codes.tensor
        assert sum(t is codes.tensor for t in network.inputs) == 1
        assert entropy.inputs == (network.output,) and entropy.output is loss
    with ad.Tape() as tape:
        loss, codes = tr.compute_loss(state, (xv[:50], yv[:50]), reach="weights")
        assert len(tape.nodes) == 2 and tape.nodes[-1].output is loss
        assert tape.nodes[0].inputs[0] is codes.tensor
    recorded = []
    backward = ad.backward

    def counting(loss):
        recorded.append(len(ad._tape_stack()[-1].nodes))
        return backward(loss)

    monkeypatch.setattr(ad, "backward", counting)
    code = ArchitectureCode(n=4, K=K, bits=np.ones((num_edges(4), K), dtype=np.uint8))
    tr.retrain(code, ds, cfg, epochs=1)
    assert len(recorded) == -(-len(ds.splits["train"]) // cfg.batch_size)
    assert set(recorded) == {2}


def test_compute_loss_rejects_unknown_reach():
    cfg = small_cfg()
    ds = tr.build_dataset(cfg)
    with pytest.raises(ValueError, match="reach"):
        tr.compute_loss(tr.build_state(cfg, ds), ds.split("valid"), reach="codes")


def test_weight_substep_keeps_the_logits_off_the_tape():
    # the first weight substep of benchmarks/bench_search.py's default case,
    # whose 2 nodes (the network and the loss) BENCH_search.json records
    cfg = RunConfig(seed=1)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    x, y = ds.split("train")
    logits = state.network.logits
    with ad.Tape() as tape:
        loss, samples = tr.compute_loss(state, (x[:cfg.batch_size], y[:cfg.batch_size]),
                                        reach="weights")
        # read before the sweep, which releases each node's inputs
        assert not any(t is logits for node in tape.nodes for t in node.inputs)
        grads = ad.backward(loss)
    assert logits not in grads
    assert all(s.node is None for _, s in samples.items())
    assert any(t in grads for t in state.weights())
    assert len(tape.nodes) == 2


def test_sgd_momentum_decays_or_skips_absent_gradients():
    fed, decaying, idle = (ad.Tensor(np.ones(2), requires_grad=True)
                           for _ in range(3))
    opt = tr.MomentumSGD([fed, decaying, idle])
    idle_data = idle.data
    assert all(t.data.base is opt.flat for t in (fed, decaying, idle))
    opt.step({decaying: np.array([1.0, -2.0])}, lr=0.5, momentum=0.5)
    opt.step({fed: np.array([3.0, 4.0])}, lr=0.5, momentum=0.5)
    # |g| = 5 is at the clip norm, so the gradient goes in unscaled
    assert np.array_equal(fed.data, [-0.5, -1.0])
    assert np.array_equal(opt.velocity[:4], [3.0, 4.0, 0.5, -1.0])
    assert np.array_equal(decaying.data, [0.25, 2.5])
    assert idle.data is idle_data and np.array_equal(idle.data, [1.0, 1.0])


def reference_sgd_momentum(tensors, grads, velocities, lr, momentum):
    """The per-tensor update MomentumSGD replaced, kept as its reference."""
    total = 0.0
    for t in tensors:
        g = grads.get(t)
        if g is not None:
            total += float((g * g).sum())
    clip = tr.GRAD_CLIP_NORM / np.sqrt(total) if total > tr.GRAD_CLIP_NORM**2 else None
    for t in tensors:
        g = grads.get(t)
        v = velocities.get(id(t))
        if g is None:
            if v is None:
                continue
            v = momentum * v
        else:
            if clip is not None:
                g = g * clip
            v = g if v is None else momentum * v + g
        velocities[id(t)] = v
        t.data = t.data - lr * v


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
def test_momentum_sgd_equals_the_per_tensor_update_bit_for_bit(seed, steps):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 3)))
              for _ in range(int(rng.integers(1, 7)))]
    init = [rng.normal(size=s) * rng.choice([1e-3, 1.0]) for s in shapes]
    for a in init:  # signed zeros among the weights
        a[rng.random(a.shape) < 0.2] = rng.choice([0.0, -0.0])
    ref = [ad.Tensor(a.copy(), requires_grad=True) for a in init]
    new = [ad.Tensor(a.copy(), requires_grad=True) for a in init]
    opt = tr.MomentumSGD(new)
    never = int(rng.integers(len(shapes)))  # one tensor may stay idle throughout
    velocities = {}
    lr, momentum = float(rng.choice([0.05, 0.5])), float(rng.choice([0.0, 0.9]))
    for _ in range(steps):
        scale = rng.choice([1e-2, 1.0, 30.0])  # the clip fires at the largest
        grads_ref, grads_new = {}, {}
        for i, (a, b) in enumerate(zip(ref, new)):
            if i == never and seed % 2 or rng.random() < 0.4:
                continue
            g = rng.normal(size=a.shape) * scale
            g[rng.random(a.shape) < 0.3] = -0.0
            grads_ref[a], grads_new[b] = g, g.copy()
        idle = [bits(b.data).tobytes() for i, b in enumerate(new) if id(ref[i]) not in velocities
                and ref[i] not in grads_ref]
        reference_sgd_momentum(ref, grads_ref, velocities, lr, momentum)
        opt.step(grads_new, lr, momentum)
        for a, b in zip(ref, new):
            assert bits(a.data).tobytes() == bits(b.data).tobytes()
        assert idle == [bits(b.data).tobytes() for i, b in enumerate(new)
                        if id(ref[i]) not in velocities]
        for a, v in zip(ref, opt.slots):
            want = velocities.get(id(a))
            assert bits(v).tobytes() == bits(np.zeros_like(v) if want is None else want).tobytes()


def test_momentum_sgd_refuses_a_rebound_weight():
    w, b = ad.Tensor(np.ones((2, 2)), requires_grad=True), ad.Tensor(np.zeros(2))
    opt = tr.MomentumSGD([w, b])
    w.data = w.data.copy()
    with pytest.raises(ValueError, match=r"weight 0 .*rebound"):
        opt.step({b: np.ones(2)}, 0.1, 0.9)


def test_search_holds_one_logits_tensor(monkeypatch):
    # the logit substep's view holds the network's own logits tensor, so a
    # rebound .data is the array the next update writes and the next draw reads
    cfg = small_cfg()
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    assert state.frozen.logits is state.network.logits
    x, y = ds.split("train")
    rebound = state.network.logits.data.copy()
    state.network.logits.data = rebound
    tr.search_step(state, (x[:32], y[:32]), (x[32:64], y[32:64]))
    assert state.network.logits.data is rebound
    assert np.any(rebound != 0.0)  # the logits start at zero
    read = []
    real = tr.draw_scores

    def recording(p, m, rng):
        read.append(p)
        return real(p, m, rng)

    monkeypatch.setattr(tr, "draw_scores", recording)
    tr.sample_edges(state, relax=False)
    want = ad.softmax_of(rebound) * cfg.lam + state.network.l * (1.0 - cfg.lam)
    assert read[0].tobytes() == want.tobytes()


def test_frozen_view_holds_each_weights_own_array_as_a_constant():
    # every weight of the logit substep's view is a constant on the
    # network's array, the same object, before and after an update writes
    # it in place; `state.cell` is the network itself
    cfg = small_cfg(nodes=4, output_rule="concat")
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    assert state.cell is state.network
    x, y = ds.split("train")
    for step in range(2):
        frozen, live = state.frozen.weights(), state.weights()
        assert len(frozen) == len(live) == 4 + num_edges(4) * 6
        for f, w in zip(frozen, live):
            assert f is not w and w.requires_grad
            assert not f.requires_grad and f.node is None
            assert f.data is w.data
        tr.search_step(state, (x[:32], y[:32]), (x[32:64], y[32:64]))


def live_tape_nodes():
    return sum(isinstance(o, ad.TapeNode) for o in gc.get_objects())


def test_step_graphs_are_freed_without_the_cycle_collector(monkeypatch):
    cfg = small_cfg(epochs=1)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    losses = []
    compute_loss = tr.compute_loss

    def spy(*args, **kwargs):
        loss, samples = compute_loss(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss, samples

    monkeypatch.setattr(tr, "compute_loss", spy)
    x, y = ds.split("train")
    xv, yv = ds.split("valid")
    gc.collect()
    gc.disable()
    try:
        tr.search_step(state, (x[:64], y[:64]), (xv[:50], yv[:50]))
        dead = [ref() is None for ref in losses]
        monkeypatch.undo()
        _, report = tr.run_search(cfg, ds)
        tr.retrain(report.derived, ds, cfg, epochs=1)
        live = live_tape_nodes()
    finally:
        gc.enable()
    assert dead == [True, True]  # both substeps' graphs
    assert live == 0


def test_search_is_deterministic():
    cfg = small_cfg(epochs=3)
    s1, r1 = tr.run_search(cfg)
    s2, r2 = tr.run_search(cfg)
    for a, b in zip(s1.weights(), s2.weights()):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(s1.network.logits.data, s2.network.logits.data)
    assert r1.histogram == r2.histogram
    assert r1.derived == r2.derived
    for ra, rb in zip(r1.rows, r2.rows):
        assert ra[:4] == rb[:4]  # everything but the wall clock


def test_report_counts_and_tau_endpoint():
    cfg = small_cfg(epochs=4)
    ds = tr.build_dataset(cfg)
    state, report = tr.run_search(cfg, ds)
    spe = tr._steps_per_epoch(len(ds.splits["train"]), cfg.batch_size)
    assert state.step == 4 * spe
    assert [row[0] for row in report.rows] == [spe * (e + 1) for e in range(4)]
    assert report.sampling_events == 2 * state.step * num_edges(cfg.nodes)
    taus = [row[3] for row in report.rows]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert taus[-1] == pytest.approx(cfg.tau_end)
    walls = [row[4] for row in report.rows]
    assert all(a <= b for a, b in zip(walls, walls[1:]))


def test_search_step_reports_divergence_context():
    cfg = small_cfg(nodes=2, M=2, lam=1.0)
    ds = nan_dataset()
    state = tr.build_state(cfg, ds)
    # pin the edge to the identity op so the bad input reaches the loss
    state.network.logits.data[0] = np.array([-30.0, 30.0, -30.0, -30.0, -30.0])
    x, y = ds.split("train")
    with pytest.raises(tr.SearchDiverged, match=r"training .*codes"):
        tr.search_step(state, (x, y), (x, y))


def test_a_zero_bit_ops_overflow_in_the_logit_substep_diverges():
    # the edge is pinned to the identity op (M 1, lam 1, every other op at
    # p = 0), and its linear_relu op's weights overflow.  The weight
    # substep never runs that op; the logit substep runs it for the code's
    # gradient but skips its 0 * inf term, so the loss stays finite and the
    # overflow reaches only the logits' gradient
    cfg = small_cfg(nodes=2, M=1, lam=1.0)
    ds = tr.build_dataset(cfg)
    state = tr.build_state(cfg, ds)
    state.network.logits.data[0] = np.array([-1e3, 1e3, -1e3, -1e3, -1e3])
    relu = next(k for k, op in enumerate(OP_SET) if op.name == "linear_relu")
    state.network.params[(0, 1)][relu]["W"].data[...] = 1e308
    x, y = ds.split("train")
    logits = state.network.logits.data.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.SearchDiverged,
                           match=re.escape("non-finite logit gradient at step 0")):
            tr.search_step(state, (x, y), (x, y))
    assert np.array_equal(state.network.logits.data, logits)


def test_search_loss_descends():
    cases = [
        dict(dataset="spirals", dataset_n=600, epochs=40),
        dict(dataset="two_moons", dataset_n=600, epochs=40),
        dict(dataset="parity", dataset_bits=6, epochs=200),
    ]
    wins = 0
    for case in cases:
        for seed in (0, 1):
            cfg = small_cfg(seed=seed, dim=8, **case)
            _, report = tr.run_search(cfg)
            losses = [row[1] for row in report.rows]
            assert np.all(np.isfinite(losses))
            wins += np.mean(losses[-5:]) < np.mean(losses[:5])
    # stochastic resampling keeps single runs noisy; the direction must hold
    assert wins >= 5, wins


# --- the sampling law inside the loop ----------------------------------------


def test_sampling_matches_exact_law_when_frozen():
    cfg = small_cfg(
        nodes=3, M=2, epochs=75, lr_w=0.0, momentum=0.0, lr_alpha=0.0
    )
    state, report = tr.run_search(cfg)
    # zero learning rates freeze the logits, so p keeps its initial mix
    p = state.network.mix()[0][0]  # edge (0, 1)
    dist = exact_code_distribution(p, 2)
    per_edge = 2 * state.step
    for e, counts in report.histogram.items():
        assert sum(counts.values()) == per_edge
        for code, prob in dist.items():
            if prob < 1e-3:
                continue
            # 4 sigma: ~40 simultaneous checks across edges and codes
            sd = np.sqrt(per_edge * prob * (1.0 - prob))
            assert abs(counts.get(code, 0) - per_edge * prob) <= 4 * sd, (e, code)


# --- derivation --------------------------------------------------------------


def test_derive_modes_agree_on_peaked_distributions():
    cfg = small_cfg(nodes=3, lam=1.0, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    rng = np.random.default_rng(7)
    for _ in range(20):
        want = {}
        for r, e in enumerate(edge_list(3)):
            j = int(rng.integers(K))
            logits = np.full(K, -20.0)
            logits[j] = 20.0
            state.network.logits.data[r] = logits
            want[e] = j
        a = tr.derive_architecture(state, "mode-sample")
        b = tr.derive_architecture(state, "max-marginal")
        for row, e in enumerate(edge_list(3)):
            expected = np.zeros(K)
            expected[want[e]] = 1
            assert np.array_equal(a.bits[row], expected)
            assert np.array_equal(b.bits[row], expected)


def test_mode_sample_recovers_the_exact_mode():
    cfg = small_cfg(nodes=2, lam=1.0, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    p = np.array([0.05, 0.7, 0.1, 0.1, 0.05])
    state.network.logits.data[0] = np.log(p)
    dist = exact_code_distribution(p, 2)
    want = max(dist.items(), key=lambda kv: kv[1])[0]
    code = tr.derive_architecture(state, "mode-sample", draws=4000)
    assert tuple(code.bits[0]) == want


def mode_by_tuple_counts(codes):
    """The most frequent row, counted per draw as a tuple; a tie goes to the
    lexicographically larger tuple."""
    counts = {}
    for code in map(tuple, codes.tolist()):
        counts[code] = counts.get(code, 0) + 1
    return max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]


def test_mode_sample_equals_the_tuple_count_rule(monkeypatch):
    cfg = small_cfg(nodes=4, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    rng = np.random.default_rng(5)
    drawn = []
    real = tr.kernels.egs_hard_batch

    def recording(p, u, m):
        codes = real(p, u, m)
        drawn.append(codes)
        return codes

    monkeypatch.setattr(tr.kernels, "egs_hard_batch", recording)
    for _ in range(10):
        state.network.logits.data[:] = rng.normal(0, 1.5, state.network.logits.data.shape)
        drawn.clear()
        code = tr.derive_architecture(state, "mode-sample", draws=200)
        assert [mode_by_tuple_counts(c) for c in drawn] == list(map(tuple, code.bits.tolist()))


@pytest.mark.parametrize("rows,want", [
    ([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]], [1, 0, 0, 0, 0]),
    ([[0, 0, 0, 1, 1], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0]] * 2 + [[0, 0, 0, 0, 1]],
     [0, 1, 1, 0, 0]),
    ([[0, 0, 0, 0, 1]] * 3 + [[1, 1, 0, 0, 0]] * 2, [0, 0, 0, 0, 1]),
])
def test_mode_sample_breaks_ties_toward_the_larger_code(monkeypatch, rows, want):
    cfg = small_cfg(nodes=2, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    codes = np.array(rows, dtype=np.uint8)
    assert mode_by_tuple_counts(codes) == tuple(want)
    monkeypatch.setattr(tr.kernels, "egs_hard_batch", lambda p, u, m: codes)
    assert tr.derive_architecture(state, "mode-sample").bits[0].tolist() == want


def test_max_marginal_falls_back_to_argmax():
    # uniform p with M=1 leaves every marginal at 1/K < 0.5
    cfg = small_cfg(nodes=2, lam=1.0, M=1)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    code = tr.derive_architecture(state, "max-marginal")
    assert code.bits[0].tolist() == [1, 0, 0, 0, 0]


def test_max_marginal_clamps_to_reachable_codes():
    cfg = small_cfg(nodes=2, lam=1.0, M=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    state.network.logits.data[0] = np.array([2.0, 2.0, 2.0, -5.0, -5.0])
    p = state.network.mix()[0][0]  # edge (0, 1)
    over = marginal_inclusion_oracle(p, 2) >= 0.5
    assert sum(over) == 3  # the threshold alone would pick an unreachable code
    code = tr.derive_architecture(state, "max-marginal")
    assert code.bits[0].tolist() == [1, 1, 0, 0, 0]


def test_derived_codes_stay_reachable():
    cfg = small_cfg(nodes=4, M=3)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    rng = np.random.default_rng(11)
    for r in range(num_edges(4)):
        state.network.logits.data[r] = rng.normal(0, 1.5, K)
    for mode in ("mode-sample", "max-marginal"):
        code = tr.derive_architecture(state, mode)
        ones = code.bits.sum(axis=1)
        assert np.all(ones >= 1)
        assert np.all(ones <= 3)


def test_derivation_is_repeatable_and_leaves_the_stream_alone():
    cfg = small_cfg(epochs=2)
    state, report = tr.run_search(cfg)
    pos = state.rng.position
    again = tr.derive_architecture(state, cfg.derive_mode, draws=cfg.derive_draws)
    assert state.rng.position == pos
    assert again == report.derived


def test_derive_rejects_unknown_mode():
    cfg = small_cfg(nodes=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    with pytest.raises(ValueError, match="derive mode"):
        tr.derive_architecture(state, "viterbi")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["mode-sample", "max-marginal"])
def test_derive_refuses_non_finite_logits(mode, bad):
    # a non-finite logit makes its edge's sampling probabilities NaN, which
    # the derivation's one simplex check refuses in either mode
    cfg = small_cfg(nodes=3)
    state = tr.build_state(cfg, tr.build_dataset(cfg))
    state.network.logits.data[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="p has non-finite entries"):
        tr.derive_architecture(state, mode)


@pytest.mark.parametrize("draws, message", [
    (0, "at least one draw"),  # every count 0: the tie-break would pick all ops
    (10**8, "past the budget"),  # 10**9 uniforms in one block
])
def test_derive_refuses_draws_before_drawing(monkeypatch, draws, message):
    cfg = small_cfg(nodes=2)
    state = tr.build_state(cfg, tr.build_dataset(cfg))

    def no_uniforms(rng, count):
        raise AssertionError(f"{count} uniforms drawn")

    monkeypatch.setattr(RngState, "uniform", no_uniforms)
    with pytest.raises(ValueError, match=f"derive_draws={draws}.*{message}"):
        tr.derive_architecture(state, "mode-sample", draws=draws)


# --- retraining fixed codes --------------------------------------------------


def manual_retrain(ds, cfg):
    """Numpy twin of `retrain` for the single-edge relu code.

    Mirrors the real pipeline expression by expression (same init rng,
    same batch stream, same clipped momentum) so the trajectories agree
    to float precision, not just in tendency.
    """
    net = tr.make_network(
        ds.features.shape[1], ds.n_classes, cfg, np.random.default_rng(cfg.seed + 1)
    )
    w_in = net.w_in.data.copy()
    b_in = net.b_in.data.copy()
    w = net.params[(0, 1)][2]["W"].data.copy()
    b = net.params[(0, 1)][2]["b"].data.copy()
    w_out = net.w_out.data.copy()
    b_out = net.b_out.data.copy()

    def forward(x):
        h = x @ w_in + b_in
        z = h @ w + b
        a = np.where(z > 0.0, z, 0.0)
        return h, z, a, a @ w_out + b_out

    def ce(logits, yy):
        zmax = logits.max(axis=1, keepdims=True)
        ez = np.exp(logits - zmax)
        lse = np.log(ez.sum(axis=1)) + zmax[:, 0]
        rows = np.arange(len(yy))
        nll = (lse - logits[rows, yy]).mean()
        return nll, ez / ez.sum(axis=1, keepdims=True)

    train_idx = ds.splits["train"]
    stream = tr._batch_stream(
        train_idx, cfg.batch_size,
        np.random.default_rng(np.random.PCG64(cfg.seed + 1).jumped(3)),
    )
    spe = tr._steps_per_epoch(len(train_idx), cfg.batch_size)
    vel = {}
    loss_value = np.nan
    for _ in range(cfg.retrain_epochs * spe):
        bi = next(stream)
        x, yy = ds.features[bi], ds.labels[bi]
        h, z, a, logits = forward(x)
        loss_value, probs = ce(logits, yy)
        gl = probs.copy()
        gl[np.arange(len(yy)), yy] -= 1.0
        gl = gl * (1.0 / len(yy))
        g_w_out = a.T @ gl
        g_b_out = gl.sum(axis=0)
        gz = (gl @ w_out.T) * (z > 0.0)
        g_w = h.T @ gz
        g_b = gz.sum(axis=0)
        gh = gz @ w.T
        g_w_in = x.T @ gh
        g_b_in = gh.sum(axis=0)
        grads = [
            ("w_in", g_w_in), ("b_in", g_b_in), ("w", g_w), ("b", g_b),
            ("w_out", g_w_out), ("b_out", g_b_out),
        ]
        total = 0.0
        for _, g in grads:
            total += float((g * g).sum())
        scale = (
            1.0 if total <= tr.GRAD_CLIP_NORM**2
            else tr.GRAD_CLIP_NORM / np.sqrt(total)
        )
        params = {"w_in": w_in, "b_in": b_in, "w": w, "b": b,
                  "w_out": w_out, "b_out": b_out}
        for name, g in grads:
            v = vel.get(name)
            v = cfg.momentum * v + g * scale if v is not None else g * scale
            vel[name] = v
            params[name] = params[name] - cfg.lr_w * v
        w_in, b_in, w, b = params["w_in"], params["b_in"], params["w"], params["b"]
        w_out, b_out = params["w_out"], params["b_out"]
    accs = {}
    for name in ("train", "valid", "test"):
        xs, ys = ds.split(name)
        accs[name] = float((np.argmax(forward(xs)[3], axis=1) == ys).mean())
    return float(loss_value), accs


def test_retrain_matches_handwritten_numpy_twin():
    cfg = RunConfig(dataset="two_moons", dataset_n=400, nodes=2, dim=8,
                    retrain_epochs=3, batch_size=64, seed=3)
    ds = tr.build_dataset(cfg)
    got = tr.retrain(one_edge_code(2), ds, cfg)
    want_loss, want_accs = manual_retrain(ds, cfg)
    assert got.final_loss == pytest.approx(want_loss, abs=1e-12)
    assert got.train_acc == want_accs["train"]
    assert got.valid_acc == want_accs["valid"]
    assert got.test_acc == want_accs["test"]


@pytest.mark.parametrize("rows,input_read", [
    ([[0, 1, 1, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]], True),
    ([[1, 0, 0, 0, 0]] * 3, False),  # no op reads the input projection
])
def test_retrain_leaves_the_weights_of_unset_ops_untouched(monkeypatch, rows, input_read):
    cfg = small_cfg(nodes=3, retrain_epochs=2)
    ds = tr.build_dataset(cfg)
    code = ArchitectureCode(n=3, K=K, bits=np.array(rows, dtype=np.uint8))
    built = []
    make = tr.make_network

    def recording(*args):
        net = make(*args)
        built.append((net, [t.data.copy() for t in net.weights()]))
        return net

    monkeypatch.setattr(tr, "make_network", recording)
    tr.retrain(code, ds, cfg)
    (net, initial), = built
    untouched = {id(t) for r, e in enumerate(edge_list(3)) for k in range(K)
                 if not code.bits[r, k] for t in net.params[e][k].values()}
    if not input_read:
        untouched |= {id(net.w_in), id(net.b_in)}
    moved = 0
    for t, before in zip(net.weights(), initial):
        if id(t) in untouched:
            assert t.data.tobytes() == before.tobytes()
        else:
            moved += t.data.tobytes() != before.tobytes()
    assert moved > 0


def test_retrain_accuracy_passes_record_nothing():
    cfg = small_cfg(nodes=3, retrain_epochs=1)
    ds = tr.build_dataset(cfg)
    code = ArchitectureCode(n=3, K=K, bits=np.ones((num_edges(3), K), dtype=np.uint8))
    with ad.Tape() as outer:  # each training step records on its own tape
        tr.retrain(code, ds, cfg)
    assert outer.nodes == []


def test_relu_mlp_code_learns_two_moons():
    cfg = RunConfig(dataset="two_moons", dataset_n=600, nodes=2, dim=8,
                    retrain_epochs=40, batch_size=64, seed=0)
    ds = tr.build_dataset(cfg)
    res = tr.retrain(one_edge_code(2), ds, cfg)
    assert res.test_acc > 0.9
    assert res.train_acc > 0.9


def test_all_zero_code_is_a_constant_predictor():
    cfg = small_cfg(nodes=3, retrain_epochs=5)
    ds = tr.build_dataset(cfg)
    code = ArchitectureCode(
        n=3, K=K, bits=np.zeros((num_edges(3), K), dtype=np.uint8)
    )
    res = tr.retrain(code, ds, cfg)
    got = (res.train_acc, res.valid_acc, res.test_acc)
    candidates = []
    for c in range(ds.n_classes):
        candidates.append(tuple(
            float((ds.split(name)[1] == c).mean())
            for name in ("train", "valid", "test")
        ))
    assert got in candidates, got


def test_retrain_rejects_mismatched_dimensions():
    cfg = small_cfg(nodes=4)
    ds = tr.build_dataset(cfg)
    bad = ArchitectureCode(
        n=3, K=K, bits=np.zeros((num_edges(3), K), dtype=np.uint8)
    )
    with pytest.raises(ValueError, match="do not match"):
        tr.retrain(bad, ds, cfg)


def test_retrain_reports_divergence_on_bad_data():
    cfg = small_cfg(nodes=2, retrain_epochs=1)
    # the message names each edge's code
    message = re.escape("non-finite retrain loss, codes {(0, 1): (0, 1, 0, 0, 0)}")
    with pytest.raises(tr.SearchDiverged, match=message):
        tr.retrain(one_edge_code(1), nan_dataset(), cfg)


# --- random baseline ---------------------------------------------------------


def test_baseline_is_deterministic_and_picks_by_validation():
    cfg = small_cfg(nodes=3, baseline_budget=6, baseline_retrain_epochs=1)
    ds = tr.build_dataset(cfg)
    a = tr.random_search_baseline(ds, cfg)
    b = tr.random_search_baseline(ds, cfg)
    assert len(a.results) == 6
    for ra, rb in zip(a.results, b.results):
        assert ra.code == rb.code
        assert ra.test_acc == rb.test_acc
    assert a.best.valid_acc == max(r.valid_acc for r in a.results)
    with pytest.raises(ValueError, match="budget"):
        tr.random_search_baseline(ds, cfg, budget=0)


def test_baseline_resamples_empty_edges_when_asked():
    cfg = small_cfg(nodes=4, baseline_budget=12, baseline_retrain_epochs=1)
    ds = tr.build_dataset(cfg)
    free = tr.random_search_baseline(ds, cfg)
    assert any(
        (r.code.bits.sum(axis=1) == 0).any() for r in free.results
    )  # this seed does hit an all-zero edge row
    strict_cfg = small_cfg(
        nodes=4, baseline_budget=12, baseline_retrain_epochs=1,
        allow_empty_edges=False,
    )
    strict = tr.random_search_baseline(ds, strict_cfg)
    assert all((r.code.bits.sum(axis=1) > 0).all() for r in strict.results)


# --- reporting ---------------------------------------------------------------


def test_metrics_csv_layout_and_round_trip():
    cfg = small_cfg(epochs=3)
    _, report = tr.run_search(cfg)
    text = tr.metrics_csv(report)
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "step,train_loss,valid_loss,tau,wall_seconds"
    assert len(lines) == 1 + 3
    for line, row in zip(lines[1:], report.rows):
        parts = line.split(",")
        assert int(parts[0]) == row[0]
        for text_value, value in zip(parts[1:], row[1:]):
            assert float(text_value) == value  # repr round-trips exactly
    bare = tr.metrics_csv(report, include_wall=False)
    assert bare.splitlines()[0] == "step,train_loss,valid_loss,tau"
    assert all(len(l.split(",")) == 4 for l in bare.splitlines())
