"""Gumbel noise, Gumbel-Max, and Gumbel-Softmax behavior.

A Gumbel-Softmax sample is the one-component EGS draw, egs_sample(p, 1, tau,
rng), and Gumbel-Max is its hard code; Gumbel-Max in bulk is the batch
kernel at M=1.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch import autodiff as ad
from egsearch import kernels
from egsearch.gumbel import RngState, gumbel_transform
import opchain as oc
from opchain import egs_sample

EULER_MASCHERONI = 0.5772156649015329
GUMBEL_STD = math.pi / math.sqrt(6.0)


# --- RngState ----------------------------------------------------------------


def test_rng_state_replayable():
    r = RngState(5)
    first = r.uniform(10)
    second = r.uniform(10)
    assert r.position == 20
    assert np.array_equal(RngState(5).uniform(10), first)
    # resuming from a stored position reproduces the tail exactly
    assert np.array_equal(RngState(5, position=10).uniform(10), second)


def test_rng_state_streams_differ_by_seed():
    assert not np.array_equal(RngState(1).uniform(8), RngState(2).uniform(8))


def test_rng_clone_is_independent():
    r = RngState(3)
    c = r.clone()
    a = r.uniform(4)
    assert c.position == 0
    assert np.array_equal(c.uniform(4), a)


def fresh(seed, position, count):
    bitgen = np.random.PCG64(seed)
    bitgen.advance(position)
    return np.random.Generator(bitgen).random(count)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63), ops=st.lists(st.one_of(
    st.tuples(st.just("uniform"), st.integers(0, 3), st.integers(0, 70)),
    st.tuples(st.just("clone"), st.integers(0, 3)),
    st.tuples(st.just("set"), st.integers(0, 3), st.integers(0, 500)),
), max_size=30))
def test_live_stream_equals_a_fresh_advance(seed, ops):
    # interleaved draws, clones and hand-set positions over a few states:
    # every draw is the fresh PCG64(seed).advance(position) stream
    states = [RngState(seed)]
    for op, i, *arg in ops:
        r = states[i % len(states)]
        if op == "uniform":
            at = r.position
            assert r.uniform(arg[0]).tobytes() == fresh(seed, at, arg[0]).tobytes()
            assert r.position == at + arg[0]
        elif op == "clone":
            states.append(r.clone())
        else:
            r.position = arg[0]


def test_a_copied_state_does_not_share_the_live_stream():
    r = RngState(9)
    r.uniform(5)
    twin = copy.copy(r)
    assert np.array_equal(twin.uniform(3), fresh(9, 5, 3))
    assert np.array_equal(r.uniform(3), fresh(9, 5, 3))


# --- Gumbel noise ------------------------------------------------------------


def test_gumbel_transform_closed_form():
    # U=0.5 -> G = -log(log 2)
    got = gumbel_transform(np.array([0.5]))[0]
    assert got == pytest.approx(-math.log(math.log(2.0)), abs=1e-12)
    assert got == pytest.approx(0.3665, abs=1e-4)


def test_gumbel_transform_clamped_at_boundaries():
    vals = gumbel_transform(np.array([0.0, 1.0, 0.5]))
    assert np.all(np.isfinite(vals))
    assert vals[1] > 20.0  # near-one uniform gives a large but finite G
    assert vals[0] < -3.0


def test_gumbel_noise_mean_matches_euler_mascheroni():
    n = 1_000_000
    g = gumbel_transform(RngState(2024).uniform(n))
    se = GUMBEL_STD / math.sqrt(n)
    assert abs(g.mean() - EULER_MASCHERONI) <= 3 * se


# --- Gumbel-Max: the hard code of egs_sample at M=1 -------------------------


def pick(p, rng):
    """The category a one-component draw selects: Gumbel-Max."""
    return int(np.argmax(egs_sample(p, 1, 1.0, rng).hard.data))


def test_gumbel_max_degenerate_always_first():
    rng = RngState(7)
    assert all(pick([1.0, 0.0, 0.0], rng) == 0 for _ in range(50))


def test_gumbel_max_rejects_bad_input():
    with pytest.raises(ValueError, match="does not sum to 1"):
        pick([0.0, 0.0], RngState(0))  # all zero
    with pytest.raises(ValueError, match="does not sum to 1"):
        pick([0.7, 0.7], RngState(0))  # off the simplex
    with pytest.raises(ValueError, match="negative"):
        pick([1.5, -0.5], RngState(0))


def test_gumbel_max_frequencies_symmetric():
    rng = RngState(11)
    draws = np.array([pick([0.5, 0.5], rng) for _ in range(10_000)])
    freq = (draws == 0).mean()
    sigma = math.sqrt(0.25 / draws.size)
    assert abs(freq - 0.5) <= 3 * sigma


def test_gumbel_max_matches_batch_kernel_draw_for_draw():
    # the op and the batch kernel consume identical uniforms, so their
    # index sequences must agree exactly; this bridges per-call tests to
    # the large-batch Monte-Carlo legs
    p = np.array([0.2, 0.3, 0.5])
    rng = RngState(31)
    singles = np.array([pick(p, rng) for _ in range(500)])
    batch = kernels.egs_hard_batch(p, RngState(31).uniform(500 * 3), 1)
    assert np.array_equal(singles, batch.argmax(axis=1))


def test_gumbel_max_frequencies_3sigma():
    p = np.array([0.2, 0.3, 0.5])
    n = 100_000
    idx = kernels.egs_hard_batch(p, RngState(42).uniform(n * 3), 1).argmax(axis=1)
    counts = np.bincount(idx, minlength=3)
    for k in range(3):
        sigma = math.sqrt(p[k] * (1 - p[k]) / n)
        assert abs(counts[k] / n - p[k]) <= 3 * sigma


def test_gumbel_max_never_selects_zero_probability():
    p = np.array([0.5, 0.0, 0.5])
    codes = kernels.egs_hard_batch(p, RngState(3).uniform(20_000 * 3), 1)
    assert np.all(codes.sum(axis=1) == 1)
    assert not np.any(codes[:, 1])
    rng = RngState(4)
    assert all(pick(p, rng) != 1 for _ in range(200))


# --- Gumbel-Softmax: egs_sample at M=1 -------------------------------------


def test_gumbel_softmax_rejects_bad_temperature():
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature"):
            egs_sample([0.5, 0.5], 1, tau, RngState(0))


def test_gumbel_softmax_sample_invariants():
    rng = RngState(17)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    for tau in (0.05, 0.5, 1.0, 10.0):
        for _ in range(50):
            s = egs_sample(p, 1, tau, rng)
            soft = s.soft.data
            assert np.all(soft >= 0.0)
            assert abs(soft.sum() - 1.0) <= 1e-12
            hard = s.hard.data
            assert sorted(hard.tolist()) == [0.0, 0.0, 0.0, 1.0]
            # the one sits at an argmax of soft
            assert soft[int(np.argmax(hard))] == soft.max()


def test_gumbel_softmax_argmax_matches_raw_scores():
    # the softmax never reorders: argmax(soft) == argmax(log p + G)
    p = np.array([0.25, 0.25, 0.5])
    for seed in range(30):
        noise = gumbel_transform(RngState(seed).uniform(3))
        s = egs_sample(p, 1, 0.7, RngState(seed))
        raw = np.log(p) + noise
        assert int(np.argmax(s.hard.data)) == int(np.argmax(raw))
        assert int(np.argmax(s.soft.data)) == int(np.argmax(raw))


def test_gumbel_softmax_hard_law_equals_gumbel_max_law():
    # identical rng coordinates -> identical noise -> identical winner
    p = np.array([0.15, 0.35, 0.5])
    for seed in range(200):
        hard_idx = int(np.argmax(egs_sample(p, 1, 0.3, RngState(seed)).hard.data))
        kernel = kernels.egs_hard_batch(p, RngState(seed).uniform(3), 1)
        assert hard_idx == int(np.argmax(kernel[0]))


def test_low_temperature_approaches_one_hot():
    # condition on clearly separated noisy scores: the winning gap must
    # exceed tau*log(999*(K-1)) for the max soft entry to clear 0.999
    p = np.array([0.3, 0.3, 0.4])
    tau = 0.01
    gap_needed = tau * math.log(999.0 * (p.size - 1))
    checked = 0
    for seed in range(100, 200):
        noise = gumbel_transform(RngState(seed).uniform(3))
        scores = np.sort(np.log(p) + noise)
        if scores[-1] - scores[-2] <= gap_needed:
            continue
        s = egs_sample(p, 1, tau, RngState(seed))
        assert s.soft.data.max() > 0.999
        checked += 1
    assert checked > 80  # distinct scores are the overwhelmingly common case


def test_high_temperature_approaches_uniform():
    p = np.array([0.7, 0.1, 0.1, 0.1])
    rng = RngState(5)
    for _ in range(20):
        s = egs_sample(p, 1, 1e6, rng)
        assert np.all(np.abs(s.soft.data - 0.25) <= 1e-3)


def test_entropy_of_mean_soft_nondecreasing_in_tau():
    # common random numbers across temperatures isolate the tau effect
    for p in (np.array([0.2, 0.3, 0.5]), np.array([0.05, 0.05, 0.9])):
        rows = np.tile(p, (10_000, 1))
        entropies = []
        for tau in (0.1, 0.5, 1.0, 5.0):
            soft = egs_sample(rows, 1, tau, RngState(123)).soft.data
            m = soft.mean(axis=0)
            entropies.append(float(-(m * np.log(m)).sum()))
        assert entropies == sorted(entropies)


def test_straight_through_gradient_contract():
    # forward: hard one-hot; backward: the sampler node's logit gradient is
    # the op chain's, the relaxation under straight-through codes, bit for bit
    logits = ad.Tensor(np.array([0.2, -0.4, 0.9]), requires_grad=True)
    for seed in range(10):
        with ad.Tape():
            s = egs_sample(oc.softmax(logits), 1, 0.5, RngState(seed))
            hard_grad = ad.backward(oc.pick(s.hard, 1))[logits]
        with ad.Tape():
            soft, hard = oc.relaxation(oc.softmax(logits), 1, 0.5, RngState(seed))
            assert np.array_equal(hard, s.hard.data)
            chain_grad = ad.backward(oc.pick(oc.straight_through(soft, hard), 1))[logits]
        assert np.array_equal(hard_grad, chain_grad)
        assert np.all(np.isfinite(hard_grad))
        assert np.any(hard_grad != 0.0)


def test_gumbel_softmax_differentiable_wrt_logits_fd():
    # finite differences of the relaxed sample through softmax(logits), and
    # the gradient the hard code passes straight through
    logits0 = np.array([0.3, -0.2, 0.5, 0.1])

    def loss_at(vals, seed):
        t = ad.Tensor(vals, requires_grad=True)
        with ad.Tape():
            s = egs_sample(oc.softmax(t), 1, 0.7, RngState(seed))
            return float(s.soft.data[2]), ad.backward(oc.pick(s.hard, 2))[t]

    for seed in range(5):
        _, g = loss_at(logits0, seed)
        step = 1e-5
        for k in range(4):
            hi = logits0.copy()
            hi[k] += step
            lo = logits0.copy()
            lo[k] -= step
            oh, _ = loss_at(hi, seed)
            ol, _ = loss_at(lo, seed)
            fd = (oh - ol) / (2 * step)
            assert abs(g[k] - fd) <= max(1e-7, 1e-4 * max(abs(g[k]), abs(fd)))
