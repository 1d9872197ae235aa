"""Ensemble Gumbel-Softmax: binary codes as maxima of M one-hot samples.

A code over K categories is drawn by taking M independent Gumbel-Softmax
samples from the same probability vector and combining them with an
element-wise maximum, both on the hard one-hots (giving a binary code with
1..min(M, K) ones) and on the soft relaxations (keeping the whole thing
differentiable).  One call draws a code for every row of a stack of
probability vectors, so a search substep samples all its edges at once.
Exact oracles for the marginal inclusion probability and the reachable code
set live here too, next to the sampler they audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import autodiff as ad
from .gumbel import RngState, check_simplex, hard_code, relaxed_max

__all__ = [
    "BinaryCodeSample",
    "egs_sample",
    "marginal_inclusion_oracle",
    "reachable_codes",
]

ENUMERATION_MAX_K = 16
# reachable_codes enumerates at most this many M-fold compositions
ENUMERATION_BUDGET = 2_000_000


@dataclass
class BinaryCodeSample:
    """Sampled binary codes with their differentiable relaxation.

    hard is the element-wise max of the component one-hots (exposed with
    straight-through behavior); soft is the element-wise max of the
    component soft vectors, its gradient routed to the lowest component
    attaining the max.
    """

    hard: ad.Tensor
    soft: ad.Tensor


def egs_sample(p, M: int, tau: float, rng: RngState) -> BinaryCodeSample:
    """Draw a binary code: max of M independent Gumbel-Softmax samples.

    p is one probability vector (K,), or a stack (E, K) drawn row by row
    with one uniform call in (row, component, category) order.  On the tape
    this records two ops whatever the shape: the relaxation and the
    straight-through code.  M=1 is a Gumbel-Softmax sample with its
    one-hot.
    """
    soft, scores = relaxed_max(p, M, tau, rng)
    hard = ad.straight_through(soft, hard_code(scores))
    return BinaryCodeSample(hard=hard, soft=soft)


def marginal_inclusion_oracle(p, M: int, k: int) -> float:
    """Exact P(bit k set) = 1 - (1 - p_k)^M under independent draws."""
    p = check_simplex(np.asarray(p, dtype=np.float64))
    return float(1.0 - (1.0 - p[int(k)]) ** int(M))


def reachable_codes(K: int, M: int) -> set:
    """Every binary code expressible as a max of M one-hot K-vectors.

    Enumerates the K^min(M,K) compositions of one-hots directly, so the
    count audit compares a real enumeration with the closed form; raises
    ValueError when there are more than ENUMERATION_BUDGET of them.
    """
    K, M = int(K), int(M)
    if M < 1 or K < 1:
        raise ValueError(f"need K >= 1 and M >= 1, got K={K}, M={M}")
    if K > ENUMERATION_MAX_K:
        raise ValueError(f"K={K} exceeds the enumeration bound {ENUMERATION_MAX_K}")
    m_eff = min(M, K)  # extra samples only repeat already-set bits
    if K**m_eff > ENUMERATION_BUDGET:
        raise ValueError(f"K={K}, M={M} has {K**m_eff} compositions, past the "
                         f"enumeration budget {ENUMERATION_BUDGET}")
    codes = set()
    for picks in product(range(K), repeat=m_eff):
        code = [0] * K
        for k in picks:
            code[k] = 1
        codes.add(tuple(code))
    return codes
