"""Determinism and output invariants of the batch sampling kernels."""

import numpy as np

from egsearch import kernels
from egsearch.gumbel import RngState


def test_per_backend_bitwise_determinism():
    p = np.array([0.25, 0.35, 0.4])
    u = RngState(77).uniform(10_000 * 2 * 3)
    fn = kernels.egs_hard_batch
    assert np.array_equal(fn(np.log(p), u, 2), fn(np.log(p), u, 2))
    s1 = kernels.gs_soft_batch(np.log(p), RngState(5).uniform(1000 * 3), 0.5)
    s2 = kernels.gs_soft_batch(np.log(p), RngState(5).uniform(1000 * 3), 0.5)
    assert np.array_equal(s1, s2)


def test_soft_rows_are_simplex_points():
    p = np.array([0.5, 0.3, 0.2])
    s = kernels.gs_soft_batch(np.log(p), RngState(4).uniform(2_000 * 3), 0.3)
    assert np.all(s >= 0.0)
    assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)


def test_hard_codes_have_valid_bit_counts():
    p = np.full(6, 1.0 / 6.0)
    codes = kernels.egs_hard_batch(np.log(p), RngState(8).uniform(10_000 * 3 * 6), 3)
    ones = codes.sum(axis=1)
    assert ones.min() >= 1
    assert ones.max() <= 3
