"""Gumbel noise, the noisy scores, the hard EGS code and its relaxation.

An EGS draw of M components over K categories is defined once here: the
noisy scores log p + G, shaped (..., M, K) and read from the uniforms in
(row, component, category) order (`noisy_scores`), and the binary code, the
OR over M of the argmax over K (`hard_code`).  The trainer's relaxation
(`relaxed_max`), the audit's batch kernel and Gumbel-Max (the M=1 case) all
build on these two.

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
    "gumbel_transform",
    "gumbel_noise",
    "noisy_scores",
    "hard_code",
    "gumbel_max",
    "relaxed_max",
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


def noisy_scores(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The noisy scores log p + G, (..., M, K), of an EGS draw.

    p is (..., K); u holds the draw's uniforms shaped (..., M, K), in the
    order rng.uniform returned them: row, then component, then category.
    Zero entries of p score -inf and are never picked.
    """
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    return log_p[..., None, :] + gumbel_transform(u)


def hard_code(scores: np.ndarray) -> np.ndarray:
    """Binary codes (..., K) from scores (..., M, K): each component's
    argmax over K, OR-ed over M, as uint8.  No softmax is formed."""
    code = np.zeros(scores.shape[:-2] + scores.shape[-1:], dtype=np.uint8)
    np.put_along_axis(code, scores.argmax(axis=-1), 1, axis=-1)
    return code


def gumbel_max(p, rng: RngState) -> int:
    """Sample a category index with P(k) proportional to p_k: the hard
    code of a one-component draw.

    Zero entries are never selected; an all-zero p is rejected.
    """
    p = np.asarray(p.data if isinstance(p, ad.Tensor) else p, dtype=np.float64)
    if not np.any(p > 0.0):
        raise ValueError("gumbel_max: all-zero probability vector")
    check_simplex(p)
    scores = noisy_scores(p, rng.uniform(p.size).reshape(1, p.size))
    return int(np.argmax(hard_code(scores)))


def relaxed_max(p, M: int, tau: float, rng: RngState):
    """Max over M Gumbel-Softmax relaxations of p, as one tape op.

    p is (..., K), on the tape or constant.  One rng.uniform call draws the
    draw's noisy scores (`noisy_scores`, (..., M, K)).  The output is
    soft = max_m softmax(scores_m / tau), (..., K); its gradient reaches p
    through the component attaining each max, the lowest one on ties.
    Returns (soft, scores); the hard code is `hard_code(scores)`, which the
    softmax never reorders.
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
    p_data = p.data
    shape = p_data.shape[:-1] + (M, p_data.shape[-1])
    scores = noisy_scores(p_data, rng.uniform(int(np.prod(shape))).reshape(shape))
    factor = 1.0 / tau
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

    return ad.record(soft, (p,), back), scores
