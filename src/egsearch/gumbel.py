"""The ensemble Gumbel-Softmax (EGS) sampler: Gumbel noise, the draw, and
the exact oracles that audit it.

An EGS code over K categories is the element-wise max of M independent
Gumbel-Softmax one-hots, and its relaxation, the max of the M soft
vectors, carries the gradient.  A draw is defined once here: the noisy
scores log p + G, shaped (..., M, K) and read from the uniforms in (row,
component, category) order (`noisy_scores`; `draw_scores` checks p and
takes the uniforms from one rng.uniform call), and the binary code, the OR
over M of the argmax over K (`hard_code`).  `egs_sample_of` draws the
codes of one edge or a stack of them as one op on the tensor p is computed
from, whose backward is the relaxation's gradient passed straight through:
the search's logit substep draws through it.  Its softmax and that
softmax's gradient are `autodiff.softmax_of` and `autodiff.softmax_vjp`.
Gumbel-Max (the M=1 case) builds on the same two.  The batch kernel of the
audit and the derivation (`kernels.egs_hard_batch`) reaches their bits
category-major, and a property test holds it to them byte for byte.  The
exact oracles for the inclusion marginals and the reachable code set live
next to the sampler they audit.

All randomness flows through RngState, a (seed, position) counter over the
PCG64 stream, so any draw can be replayed exactly from its coordinates.
Gumbel noise is `gumbel_transform` of its uniforms; only the batch kernel
repeats its operations, in place and in the same order.  Temperature
scheduling is the caller's business; everything here takes tau as an
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import autodiff as ad

__all__ = [
    "UNIFORM_EPS",
    "RngState",
    "gumbel_transform",
    "noisy_scores",
    "draw_scores",
    "hard_code",
    "egs_sample_of",
    "check_simplex",
    "marginal_inclusion_oracle",
    "reachable_codes",
]

# uniform draws are clamped into [eps, 1-eps] before the double log
UNIFORM_EPS = 1e-12

SIMPLEX_TOL = 1e-9

ENUMERATION_MAX_K = 16
# reachable_codes enumerates at most this many M-fold compositions
ENUMERATION_BUDGET = 2_000_000


@dataclass
class RngState:
    """Counter-based random stream: (seed, position) pins every draw.

    `position` counts consumed float64 draws; PCG64 emits one 64-bit word
    per double, so advance(position) lands exactly where the stream left
    off.  Copying the state replays the sequence.

    The generator stays live between draws.  It is rebuilt, from the seed
    and advanced to `position`, only when seed or position no longer say
    where it stands: they were set by hand, or the state was copied.
    """

    seed: int
    position: int = 0
    # (generator, owner id, seed, position) as the last draw left them
    _live: tuple = field(default=None, init=False, repr=False, compare=False)

    def uniform(self, count: int) -> np.ndarray:
        count = int(count)
        where = (id(self), self.seed, self.position)
        if self._live is not None and self._live[1:] == where:
            gen = self._live[0]
        else:
            bitgen = np.random.PCG64(self.seed)
            bitgen.advance(self.position)
            gen = np.random.Generator(bitgen)
        out = gen.random(count)
        self.position += count
        self._live = (gen, id(self), self.seed, self.position)
        return out

    def clone(self) -> "RngState":
        """A snapshot: an independent stream at this seed and position."""
        return RngState(self.seed, self.position)


def check_simplex(p: np.ndarray, what: str = "p") -> np.ndarray:
    """Validate a probability vector, or each row of a stack of them, within
    tolerance; returns it as float64."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0 or p.size == 0:
        raise ValueError(f"{what} must be a nonempty vector, got shape {p.shape}")
    sums = p.sum(axis=-1)
    # a valid p passes these two tests, and any NaN or infinity fails one,
    # so the tests below only name what is wrong
    if p.min() >= -SIMPLEX_TOL and np.abs(sums - 1.0).max() <= SIMPLEX_TOL:
        return p
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError(f"{what} has negative entries: min {p.min():.3e}")
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    raise ValueError(f"{what} does not sum to 1: sum {sums[off].flat[0]!r}")


def gumbel_transform(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel draws -log(-log(u)) from uniforms, u clamped into
    [eps, 1-eps] so neither log sees 0."""
    u = np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def noisy_scores(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The noisy scores log p + G, (..., M, K), of an EGS draw.

    p is (..., K); u holds the draw's uniforms shaped (..., M, K), in the
    order rng.uniform returned them: row, then component, then category.
    Zero entries of p score -inf and are never picked.
    """
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    return log_p[..., None, :] + gumbel_transform(u)


def draw_scores(p, M: int, rng: RngState) -> np.ndarray:
    """Check p (..., K) and draw its noisy scores (..., M, K), the uniforms
    taken from one rng.uniform call."""
    p = check_simplex(p)
    shape = p.shape[:-1] + (M, p.shape[-1])
    return noisy_scores(p, rng.uniform(math.prod(shape)).reshape(shape))


def hard_code(scores: np.ndarray) -> np.ndarray:
    """Binary codes (..., K) from scores (..., M, K): each component's
    argmax over K, OR-ed over M, as uint8.  No softmax is formed."""
    picked = scores.argmax(axis=-1)[..., None] == np.arange(scores.shape[-1])
    return np.logical_or.reduce(picked, axis=-2).view(np.uint8)


def egs_sample_of(source: ad.Tensor, p, vjp, M: int, tau: float,
                  rng: RngState) -> ad.Tensor:
    """Draw binary codes, each the max of M independent Gumbel-Softmax
    one-hots, from p, an array computed from the tensor `source`.

    p is one probability vector (K,), or a stack (E, K) drawn row by row.
    One rng.uniform call draws the noisy scores (`draw_scores`, (..., M,
    K)).  The codes, `hard_code(scores)` as float64, are recorded as one op
    on `source` whatever the shape, with the straight-through estimator's
    backward: the gradient of the relaxation max_m softmax(scores_m / tau),
    whose argmax the softmax never moves.  It reaches p through the
    component attaining each max, the lowest one on ties, and `vjp` maps
    p's gradient to source's, so p's own op and the sampler are one node.
    M=1 is a Gumbel-Softmax sample's one-hot."""
    M = int(M)
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    p_data = np.asarray(p, dtype=np.float64)
    scores = draw_scores(p_data, M, rng)  # checks p_data, the one check
    factor = 1.0 / tau
    y = ad.softmax_of(scores * factor)

    def back(g):
        # the arithmetic and the order of the sum over components follow the
        # per-component chain log -> add -> scale -> softmax -> max exactly
        winner = y.argmax(axis=-2)[..., None, :]
        routed = np.where(winner == np.arange(M)[:, None], g[..., None, :], 0.0)
        gz = ad.softmax_vjp(y, routed) * factor
        res = np.zeros_like(gz)
        np.divide(gz, p_data[..., None, :], out=res, where=gz != 0.0)
        total = res[..., M - 1, :]
        for i in range(M - 2, -1, -1):
            total = total + res[..., i, :]
        return (vjp(total),)

    return ad.record(hard_code(scores).astype(np.float64), (source,), back)


def marginal_inclusion_oracle(p, M: int) -> np.ndarray:
    """Exact P(bit k set) = 1 - (1 - p_k)^M under independent draws, for
    every k of one probability vector p (K,)."""
    p = check_simplex(p)
    M = int(M)
    # one scalar power per entry: numpy's array power can differ from it in
    # the last bit, and the audit and the derivation read these bits
    return np.array([1.0 - (1.0 - x) ** M for x in p])


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
