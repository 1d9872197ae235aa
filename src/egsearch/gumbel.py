"""Gumbel noise, Gumbel-Max decisions, and the Gumbel-Softmax relaxation.

All randomness flows through RngState, a (seed, position) counter over the
PCG64 stream, so any draw can be replayed exactly from its coordinates.
Temperature scheduling is the caller's business; everything here takes tau
as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "UNIFORM_EPS",
    "RngState",
    "GumbelSoftmaxSample",
    "gumbel_transform",
    "gumbel_noise",
    "gumbel_max",
    "relaxed_max",
    "gumbel_softmax",
    "check_simplex",
]

# uniform draws are clamped into [eps, 1-eps] before the double log
UNIFORM_EPS = 1e-12

SIMPLEX_TOL = 1e-9


@dataclass
class RngState:
    """Counter-based random stream: (seed, position) pins every draw.

    `position` counts consumed float64 draws; PCG64 emits one 64-bit word
    per double, so advance(position) lands exactly where the stream left
    off.  Copying the state replays the sequence.
    """

    seed: int
    position: int = 0

    def uniform(self, count: int) -> np.ndarray:
        bitgen = np.random.PCG64(self.seed)
        bitgen.advance(self.position)
        out = np.random.Generator(bitgen).random(int(count))
        self.position += int(count)
        return out

    def clone(self) -> "RngState":
        return RngState(self.seed, self.position)


@dataclass
class GumbelSoftmaxSample:
    """One relaxed categorical draw.

    soft is the temperature-tau softmax of the noisy log-probabilities,
    kept on the tape; hard is the one-hot at its argmax, exposed with
    straight-through behavior (forward hard, backward identity on soft).
    """

    soft: ad.Tensor
    hard: ad.Tensor
    temperature: float


def check_simplex(p: np.ndarray, what: str = "p") -> np.ndarray:
    """Validate a probability vector, or each row of a stack of them, within
    tolerance; returns it as float64."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0 or p.size == 0:
        raise ValueError(f"{what} must be a nonempty vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError(f"{what} has negative entries: min {p.min():.3e}")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.any(off):
        raise ValueError(f"{what} does not sum to 1: sum {sums[off].flat[0]!r}")
    return p


def gumbel_transform(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel draws -log(-log(u)) from uniforms, u clamped into
    [eps, 1-eps] so neither log sees 0."""
    u = np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def gumbel_noise(rng: RngState, count: int) -> np.ndarray:
    """`count` standard Gumbel draws from the next `count` uniforms of rng."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return gumbel_transform(rng.uniform(count))


def _log_probs(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def gumbel_max(p, rng: RngState) -> int:
    """Sample a category index with P(k) proportional to p_k.

    Zero entries get log p = -inf and are never selected; an all-zero p is
    rejected.
    """
    p = np.asarray(p.data if isinstance(p, ad.Tensor) else p, dtype=np.float64)
    if not np.any(p > 0.0):
        raise ValueError("gumbel_max: all-zero probability vector")
    check_simplex(p)
    scores = _log_probs(p) + gumbel_noise(rng, p.size)
    return int(np.argmax(scores))


def relaxed_max(p, M: int, tau: float, rng: RngState):
    """Max over M Gumbel-Softmax relaxations of p, as one tape op.

    p is (..., K), on the tape or constant.  One rng.uniform call draws the
    (..., M, K) noise G in (row, component, category) order.  With
    scores = log p + G, the output is soft = max_m softmax(scores_m / tau),
    (..., K); its gradient reaches p through the component attaining each
    max, the lowest one on ties.  Returns (soft, scores, y) with y the
    (..., M, K) component softmaxes.  Hard picks are the argmax of the raw
    scores, which the softmax never reorders.
    """
    M = int(M)
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    p = ad.as_tensor(p)
    check_simplex(p.data)
    if not np.all(np.any(p.data > 0.0, axis=-1)):
        raise ValueError("relaxed_max: all-zero probability vector")
    shape = p.data.shape[:-1] + (M, p.data.shape[-1])
    noise = gumbel_noise(rng, int(np.prod(shape))).reshape(shape)
    p_data = p.data
    factor = 1.0 / tau
    scores = _log_probs(p_data)[..., None, :] + noise
    z = scores * factor
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    winner = y.argmax(axis=-2)[..., None, :]
    soft = np.take_along_axis(y, winner, axis=-2)[..., 0, :]

    def back(g):
        # the arithmetic and the order of the sum over components follow the
        # per-component chain log -> add -> scale -> softmax -> max exactly
        routed = np.where(winner == np.arange(M)[:, None], g[..., None, :], 0.0)
        dot = (routed * y).sum(axis=-1, keepdims=True)
        gz = y * (routed - dot) * factor
        res = np.zeros_like(gz)
        np.divide(gz, p_data[..., None, :], out=res, where=gz != 0.0)
        total = res[..., M - 1, :]
        for i in range(M - 2, -1, -1):
            total = total + res[..., i, :]
        return (total,)

    return ad.record(soft, (p,), back), scores, y


def gumbel_softmax(p, tau: float, rng: RngState) -> GumbelSoftmaxSample:
    """Temperature-tau relaxation of gumbel_max, differentiable in p.

    soft_k = exp((log p_k + G_k)/tau) / sum_j exp((log p_j + G_j)/tau); the
    hard one-hot sits at the argmax of the raw noisy scores, which the
    softmax never reorders.
    """
    soft, scores, _ = relaxed_max(p, 1, tau, rng)
    hard_vals = np.zeros(soft.data.size, dtype=np.float64)
    hard_vals[int(np.argmax(scores[0]))] = 1.0
    hard = ad.straight_through(soft, hard_vals)
    return GumbelSoftmaxSample(soft=soft, hard=hard, temperature=float(tau))
