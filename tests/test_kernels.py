"""The audit's batch kernel: determinism, bit counts, and agreement with the
sampler that trains, draw for draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch import kernels
from egsearch.gumbel import RngState, hard_code, noisy_scores
from opchain import egs_sample


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 16), m=st.integers(1, 8), draws=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.7),
       edges=st.floats(0.0, 0.05), ties=st.integers(0, 4))
def test_kernel_equals_the_reference_draw_bit_for_bit(k, m, draws, seed, zeros, edges, ties):
    # the category-major kernel against hard_code(noisy_scores(...)), with
    # zero-probability ops, uniforms at exactly 0.0 and next to 1.0, and
    # exact ties: equal p and equal uniforms across a group of categories
    rng = np.random.default_rng(seed)
    p = rng.random(k)
    tied = rng.choice(k, size=min(k, ties + 1), replace=False)  # one: no tie
    p[tied] = p[tied[0]]
    p[rng.random(k) < zeros] = 0.0
    if not p.any():
        p[rng.integers(k)] = 1.0
    p /= p.sum()
    u = rng.random((draws, m, k))
    u[..., tied] = u[..., tied[:1]]
    u[rng.random(u.shape) < edges] = 0.0
    u[rng.random(u.shape) < edges] = np.nextafter(1.0, 0.0)
    u = u.ravel()
    want = hard_code(noisy_scores(p, u.reshape(-1, m, k)))
    got = kernels.egs_hard_batch(p, u, m)
    assert got.dtype == np.uint8
    assert got.shape == (draws, k)
    assert got.tobytes() == want.tobytes()


def test_per_backend_bitwise_determinism():
    p = np.array([0.25, 0.35, 0.4])
    u = RngState(77).uniform(10_000 * 2 * 3)
    fn = kernels.egs_hard_batch
    assert np.array_equal(fn(p, u, 2), fn(p, u, 2))


def test_soft_rows_are_simplex_points():
    # the trainer's M=1 relaxation of 2,000 rows: simplex points whose
    # argmax is the kernel's pick on the same uniforms
    p = np.array([0.5, 0.3, 0.2])
    soft = egs_sample(np.tile(p, (2_000, 1)), 1, 0.3, RngState(4)).soft.data
    assert np.all(soft >= 0.0)
    assert np.all(np.abs(soft.sum(axis=1) - 1.0) <= 1e-12)
    codes = kernels.egs_hard_batch(p, RngState(4).uniform(2_000 * 3), 1)
    assert np.array_equal(soft.argmax(axis=1), codes.argmax(axis=1))


def test_hard_codes_have_valid_bit_counts():
    p = np.full(6, 1.0 / 6.0)
    codes = kernels.egs_hard_batch(p, RngState(8).uniform(10_000 * 3 * 6), 3)
    ones = codes.sum(axis=1)
    assert ones.min() >= 1
    assert ones.max() <= 3


@pytest.mark.parametrize("e", [1, 6, 21])
def test_trained_and_audited_draws_agree_bit_for_bit(e):
    # egs_sample's hard rows on an (E, K) stack against the kernel, row by
    # row, on the uniforms each row reads, with zero-probability ops
    gen = np.random.default_rng(e)
    for k in range(2, 9):
        for m in range(1, 9):
            p = gen.dirichlet(np.ones(k), size=e)
            zero = gen.random((e, k)) < 0.3
            zero[np.arange(e), gen.integers(0, k, size=e)] = False
            p[zero] = 0.0
            p /= p.sum(axis=1, keepdims=True)
            seed = int(gen.integers(2**31))
            hard = egs_sample(p, m, 0.5, RngState(seed)).hard.data
            u = RngState(seed).uniform(e * m * k).reshape(e, m * k)
            for r in range(e):
                row = kernels.egs_hard_batch(p[r], u[r], m)
                assert row.shape == (1, k)
                assert np.array_equal(hard[r], row[0]), (e, k, m, r)
                assert not np.any(row[0][zero[r]])
