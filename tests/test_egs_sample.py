"""Ensemble Gumbel-Softmax sampler, oracles, and reachability."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egsearch import autodiff as ad
from egsearch import kernels
from egsearch.audit import count_audit
from egsearch.config import RunConfig
from egsearch.gumbel import (
    ENUMERATION_BUDGET,
    RngState,
    egs_sample_of,
    gumbel_transform,
    hard_code,
    marginal_inclusion_oracle,
    noisy_scores,
    reachable_codes,
)
from egsearch.space import make_network
import opchain as oc
from opchain import chain_mix, egs_sample, mix_op, weighted


def exact_code_distribution(p, m):
    """Brute-force P(code) over all K^M component pick sequences."""
    k = len(p)
    dist = {}
    for picks in product(range(k), repeat=m):
        prob = 1.0
        code = [0] * k
        for c in picks:
            prob *= p[c]
            code[c] = 1
        key = tuple(code)
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def sample_codes(p, m, draws, seed):
    u = RngState(seed).uniform(draws * m * len(p))
    return kernels.egs_hard_batch(np.asarray(p, dtype=np.float64), u, m)


# --- sampler structure -------------------------------------------------------


def components(p, m, tau, rng):
    """Each component's softmax((log p + G_m) / tau) and the one-hot at its
    argmax, (M, K), from the uniforms a draw at rng would read."""
    scores = np.log(p) + gumbel_transform(rng.clone().uniform(m * p.size)).reshape(m, p.size)
    z = scores * (1.0 / tau)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    onehots = (scores.argmax(axis=-1)[:, None] == np.arange(p.size)).astype(np.float64)
    return e / e.sum(axis=-1, keepdims=True), onehots


def test_m1_reduces_to_single_one_hot():
    rng = RngState(1)
    p = np.array([0.2, 0.5, 0.3])
    for _ in range(100):
        soft, onehots = components(p, 1, 0.5, rng)
        s = egs_sample(p, 1, 0.5, rng)
        assert s.hard.data.sum() == 1.0
        assert np.array_equal(s.hard.data, onehots[0])
        assert np.array_equal(s.soft.data, soft[0])


def test_rejects_bad_m():
    with pytest.raises(ValueError, match="M"):
        egs_sample([0.5, 0.5], 0, 0.5, RngState(0))


def test_definition_conformance_exact():
    # hard = elementwise max of component hards, soft likewise, exactly
    rng = RngState(2)
    p = np.array([0.1, 0.4, 0.2, 0.3])
    for _ in range(10_000):
        soft, onehots = components(p, 3, 0.4, rng)
        s = egs_sample(p, 3, 0.4, rng)
        assert np.array_equal(s.hard.data, onehots.max(axis=0))
        assert np.array_equal(s.soft.data, soft.max(axis=0))
        ones = int(s.hard.data.sum())
        assert 1 <= ones <= min(3, 4)


def test_exact_oracle_for_two_fair_categories():
    dist = exact_code_distribution([0.5, 0.5], 2)
    assert dist[(1, 1)] == pytest.approx(0.5)
    assert dist[(1, 0)] == pytest.approx(0.25)
    assert dist[(0, 1)] == pytest.approx(0.25)


def test_egs_distribution_fair_pair():
    # P([1,1]) within 3 sigma of 0.5 and strictly the most likely outcome
    n = 100_000
    codes = sample_codes([0.5, 0.5], 2, n, seed=34)
    both = float(np.all(codes == 1, axis=1).mean())
    sigma = math.sqrt(0.5 * 0.5 / n)
    assert abs(both - 0.5) <= 3 * sigma
    only0 = float(((codes[:, 0] == 1) & (codes[:, 1] == 0)).mean())
    only1 = float(((codes[:, 0] == 0) & (codes[:, 1] == 1)).mean())
    assert both > only0 and both > only1


def test_empirical_matches_exact_distribution():
    p = [0.2, 0.3, 0.5]
    m = 2
    n = 100_000
    codes = sample_codes(p, m, n, seed=71)
    dist = exact_code_distribution(p, m)
    counts = {}
    for row in map(tuple, codes.tolist()):
        counts[row] = counts.get(row, 0) + 1
    assert set(counts) <= set(dist)
    for code, q in dist.items():
        freq = counts.get(code, 0) / n
        sigma = math.sqrt(q * (1 - q) / n)
        assert abs(freq - q) <= 3 * sigma, (code, freq, q)


# --- marginal inclusion oracle ------------------------------------------------


def test_marginal_oracle_closed_forms():
    assert marginal_inclusion_oracle([0.0, 1.0], 3).tolist() == [0.0, 1.0]
    assert marginal_inclusion_oracle([0.2, 0.3, 0.5], 2)[2] == pytest.approx(0.75)


def test_marginal_oracle_vs_million_sample_mc():
    p = [0.2, 0.3, 0.5]
    codes = sample_codes(p, 2, 1_000_000, seed=5)
    for k, q in enumerate(marginal_inclusion_oracle(p, 2)):
        sigma = math.sqrt(q * (1 - q) / codes.shape[0])
        assert abs(codes[:, k].mean() - q) <= 3 * sigma


def test_marginal_accuracy_random_configs():
    rng = np.random.default_rng(2025)
    n = 100_000
    for trial in range(20):
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        p = rng.uniform(0.05, 1.0, size=k)
        p = p / p.sum()
        codes = sample_codes(p, m, n, seed=1000 + trial)
        for j, q in enumerate(marginal_inclusion_oracle(p, m)):
            sigma = math.sqrt(q * (1 - q) / n)
            assert abs(codes[:, j].mean() - q) <= 3 * sigma + 1e-12


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 8), m=st.integers(1, 8), seed=st.integers(0, 2**31 - 1),
       zeros=st.integers(0, 7))
def test_marginal_oracle_equals_the_per_bit_formula_bit_for_bit(k, m, seed, zeros):
    # the K-vector oracle against the per-bit scalar it replaced, on points
    # of the simplex with and without zero entries
    p = np.random.default_rng(seed).dirichlet(np.ones(k))
    p[: min(zeros, k - 1)] = 0.0
    p /= p.sum()
    per_bit = [float(1.0 - (1.0 - p[j]) ** m) for j in range(k)]
    got = marginal_inclusion_oracle(p, m)
    assert got.shape == (k,)
    assert got.tolist() == per_bit


def test_marginal_oracle_strictly_increasing_in_p():
    for m in (1, 2, 5):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [1.0 - (1.0 - x) ** m for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_empirical_monotonicity_in_p():
    p = [0.1, 0.2, 0.3, 0.4]
    n = 100_000
    codes = sample_codes(p, 3, n, seed=88)
    freqs = codes.mean(axis=0)
    q = marginal_inclusion_oracle(p, 3)
    # ordered p must give ordered inclusion frequencies, with 3 sigma slack
    for a, b in zip(range(3), range(1, 4)):
        qa, qb = q[a], q[b]
        slack = 3 * (math.sqrt(qa * (1 - qa) / n) + math.sqrt(qb * (1 - qb) / n))
        assert freqs[a] <= freqs[b] + slack


# --- reachable codes -----------------------------------------------------------


def brute_reachable(k, m):
    out = set()
    for picks in product(range(k), repeat=m):
        code = [0] * k
        for c in picks:
            code[c] = 1
        out.add(tuple(code))
    return out


def test_reachable_matches_brute_force():
    for k in range(1, 5):
        for m in range(1, 5):
            assert reachable_codes(k, m) == brute_reachable(k, m)


def test_reachable_known_counts():
    assert reachable_codes(2, 2) == {(1, 0), (0, 1), (1, 1)}
    assert len(reachable_codes(2, 2)) == math.comb(2, 2) * (2**2 - 1)  # agrees here
    assert reachable_codes(3, 1) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(reachable_codes(3, 2)) == 6  # formula would claim 9
    # general shape: sum of binomials up to min(M, K)
    assert len(reachable_codes(10, 4)) == sum(math.comb(10, r) for r in range(1, 5))


def test_reachable_rejects_past_the_enumeration_budget():
    # every count is a real enumeration: past the budget there is none
    assert ENUMERATION_BUDGET < 12**6 and 11**6 <= ENUMERATION_BUDGET
    with pytest.raises(ValueError, match="enumeration budget"):
        reachable_codes(12, 6)
    with pytest.raises(ValueError, match="enumeration budget"):
        reachable_codes(16, 16)
    with pytest.raises(ValueError, match="enumeration range too large"):
        count_audit(k_max=12, m_max=6)


def test_reachable_rejects_out_of_range():
    with pytest.raises(ValueError):
        reachable_codes(17, 2)
    with pytest.raises(ValueError):
        reachable_codes(4, 0)


def test_sample_support_is_reachable_and_covering():
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            target = reachable_codes(k, m)
            p = np.full(k, 1.0 / k)
            codes = sample_codes(p, m, 100_000, seed=10 * k + m)
            seen = set(map(tuple, codes.tolist()))
            assert seen <= target
            assert seen == target  # uniform p puts mass on every code


# --- gradient flow --------------------------------------------------------------


def test_gradient_flow_all_k_m():
    # no dead straight-through paths anywhere in the supported range
    weights_cache = {}
    for k in range(2, 9):
        for m in range(1, 9):
            logits = ad.Tensor(np.linspace(-0.5, 0.5, k), requires_grad=True)
            with ad.Tape():
                s = egs_sample(oc.softmax(logits), m, 0.5, RngState(7 * k + m))
                w = weights_cache.setdefault(k, np.cos(np.arange(k) + 0.3))
                loss = oc.mean(oc.multiply(s.hard, ad.Tensor(w)))
                grads = ad.backward(loss)
            g = grads[logits]
            assert np.all(np.isfinite(g))
            assert np.any(g != 0.0), (k, m)


def test_hard_gradient_equals_soft_gradient():
    # the sampler node's gradient is the op chain's: the relaxation's,
    # passed through its straight-through codes
    logits = ad.Tensor(np.array([0.1, -0.3, 0.6]), requires_grad=True)
    w = ad.Tensor([1.0, 2.0, 3.0])
    for seed in range(8):
        with ad.Tape():
            s = egs_sample(oc.softmax(logits), 2, 0.3, RngState(seed))
            hard_grad = ad.backward(oc.mean(oc.multiply(s.hard, w)))[logits]
        with ad.Tape():
            soft, hard = oc.relaxation(oc.softmax(logits), 2, 0.3, RngState(seed))
            chain = oc.straight_through(soft, hard)
            soft_grad = ad.backward(oc.mean(oc.multiply(chain, w)))[logits]
        assert np.array_equal(hard_grad, soft_grad)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 8),
    m=st.integers(1, 5),
    tau=st.floats(0.05, 2.0),
    stack=st.booleans(),
    spread=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**31 - 1),
)
# peaked p at the coldest tau: components saturate to the same one-hot, so
# the max over components ties and the lowest one must take the gradient
@example(k=3, m=4, tau=0.05, stack=True, spread=8.0, seed=1)
@example(k=2, m=5, tau=0.05, stack=False, spread=6.0, seed=2)
def test_sampler_node_is_the_hard_code_with_the_chains_gradient(k, m, tau, stack, spread,
                                                                seed):
    gen = np.random.default_rng(seed)
    shape = (3, k) if stack else (k,)
    logits = ad.Tensor(gen.normal(0.0, 1.0, shape) * spread, requires_grad=True)
    w = ad.Tensor(gen.normal(size=shape))
    u = RngState(seed).uniform(math.prod(shape) * m).reshape(shape[:-1] + (m, k))
    with ad.Tape() as tape:
        p = oc.softmax(logits)
        codes = egs_sample_of(p, p.data, lambda g: g, m, tau, RngState(seed))
        assert len(tape.nodes) == 2 and codes.node.inputs == (p,)
        grad = ad.backward(oc.mean(oc.multiply(codes, w)))[logits]
    assert codes.data.dtype == np.float64
    assert np.array_equal(codes.data, hard_code(noisy_scores(p.data, u)))
    with ad.Tape():
        soft, hard = oc.relaxation(oc.softmax(logits), m, tau, RngState(seed))
        chain = ad.backward(oc.mean(oc.multiply(oc.straight_through(soft, hard), w)))[logits]
    assert np.array_equal(hard, codes.data)
    assert np.array_equal(grad.view(np.uint64), chain.view(np.uint64))


# --- batched draws ----------------------------------------------------------------


def random_network(rng, k):
    """A network on a 3-node net (three edges) with random K-column logits
    and a random point of the simplex as its efficiency prior."""
    l = rng.dirichlet(np.ones(k))
    return dataclasses.replace(
        make_network(2, 2, RunConfig(nodes=3), np.random.default_rng(0)), l=l,
        logits=ad.Tensor(rng.normal(0.0, 1.5, (3, k)), requires_grad=True))


def test_batched_draw_equals_per_edge_draws_exactly():
    # same stream: the (E, K) draw, E one-edge draws and the primitive chain
    # give identical codes, relaxations and logit gradients
    rng = np.random.default_rng(3)
    for k in range(2, 9):
        for m in range(1, 9):
            for tau in (0.1, 1.0):
                net = random_network(rng, k)
                w = rng.normal(size=(3, k))
                seed = int(rng.integers(2**31))
                batch_rng = RngState(seed)
                with ad.Tape() as tape:
                    s = egs_sample(mix_op(net), m, tau, batch_rng)
                    assert len(tape.nodes) == 2  # probabilities, codes
                    grads = ad.backward(weighted([oc.pick(s.hard, r) for r in range(3)], w))
                one = RngState(seed)
                singles = [egs_sample(oc.pick(mix_op(net), r), m, tau, one)
                           for r in range(3)]
                ref_rng = RngState(seed)
                rows = [ad.Tensor(z.copy(), requires_grad=True) for z in net.logits.data]
                with ad.Tape():
                    ref = [oc.straight_through(*oc.relaxation(chain_mix(z, net.l, net.lam),
                                                              m, tau, ref_rng))
                           for z in rows]
                    # the relaxation under each straight-through code, read
                    # before the sweep releases the codes' nodes
                    ref_soft = [t.node.inputs[0].data for t in ref]
                    ref_grads = ad.backward(weighted(ref, w))
                assert batch_rng.position == one.position == ref_rng.position == 3 * m * k
                for r in range(3):
                    assert np.array_equal(s.hard.data[r], singles[r].hard.data)
                    assert np.array_equal(s.soft.data[r], singles[r].soft.data)
                    assert np.array_equal(s.hard.data[r], ref[r].data)
                    assert np.array_equal(s.soft.data[r], ref_soft[r])
                    assert np.array_equal(grads[net.logits][r], ref_grads[rows[r]])


def test_batched_relaxation_matches_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-6
    for k in range(2, 9):
        for m in range(1, 9):
            for tau in (0.1, 1.0):
                net = random_network(rng, k)
                w = rng.normal(size=(3, k))
                seed = int(rng.integers(2**31))

                def loss_at():
                    p = mix_op(net)
                    s = egs_sample(p, m, tau, RngState(seed))
                    return float((s.soft.data * w).mean(axis=1).sum())

                with ad.Tape():
                    s = egs_sample(mix_op(net), m, tau, RngState(seed))
                    grads = ad.backward(weighted([oc.pick(s.hard, r) for r in range(3)], w))
                base = net.logits.data
                for r in range(3):
                    for j in range(k):
                        vals = []
                        for h in (step, -step):
                            net.logits.data = base.copy()
                            net.logits.data[r, j] += h
                            vals.append(loss_at())
                        net.logits.data = base
                        fd = (vals[0] - vals[1]) / (2 * step)
                        g = grads[net.logits][r, j]
                        assert abs(g - fd) <= max(1e-7, 1e-4 * abs(fd)), (k, m, tau, r, j)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 8),
    m=st.integers(1, 8),
    e=st.integers(1, 4),
    tau=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**31 - 1),
    zeros=st.integers(0, 6),
)
def test_hard_rows_have_one_to_min_m_k_bits(k, m, e, tau, seed, zeros):
    gen = np.random.default_rng(seed)
    p = gen.dirichlet(np.ones(k), size=e)
    p[:, : min(zeros, k - 1)] = 0.0  # zero-probability ops are never picked
    p /= p.sum(axis=1, keepdims=True)
    s = egs_sample(p, m, tau, RngState(seed))
    hard = s.hard.data
    assert set(np.unique(hard)) <= {0.0, 1.0}
    ones = hard.sum(axis=1)
    assert np.all((ones >= 1) & (ones <= min(m, k)))
    assert not np.any(hard[p == 0.0])
