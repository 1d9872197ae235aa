"""The batch draw of hard EGS codes for the audit and the derivation.

The audit and the mode-sample derivation need 1e5-1e6 hard codes from one
fixed probability vector, without the relaxation or the tape.  They draw
them here from a flat block of uniforms taken from RngState.uniform, so
draws stay replayable.  Callers look the kernel up as
`kernels.egs_hard_batch`, so a tracer can wrap it.

The codes are the trainer's draw bit for bit:
`gumbel.hard_code(gumbel.noisy_scores(p, u.reshape(-1, M, K)))`, which
stays the reference the kernel is tested against.  The kernel reaches the
same bits category-major, so that no pass runs along the short K axis:

- one clip reads the uniforms transposed into a (K, M, draws) float64
  buffer, whose row (k, c) holds category k of component c, one entry per
  draw; `log`, `negative`, `log` and `negative` then run on it in place,
  the operations of `gumbel_transform` in its order, and adding log p_k to
  row k forms the sum s_k = G_k + log p_k of `noisy_scores`;
- a running strict `>` maximum over k picks each component's first
  argmax, as `argmax` does: a tie goes to the lower k, and a zero p_k
  scores -inf and never wins.  Since k only grows, a win is recorded as a
  running maximum of k times the win flag;
- category k's code row is the OR over M of "component c picked k", on
  contiguous (draws,) rows.

The result is the (draws, K) transpose of that (K, draws) array.
"""

from __future__ import annotations

import numpy as np

from .gumbel import UNIFORM_EPS

__all__ = ["egs_hard_batch"]


def egs_hard_batch(p: np.ndarray, uniforms: np.ndarray, m: int) -> np.ndarray:
    """Binary codes (draws, K) of p (K,): per draw, OR of M Gumbel-Max
    one-hots.  uniforms has draws*M*K entries in (draw, component,
    category) order."""
    k = p.shape[-1]
    draws = uniforms.size // (m * k)
    g = np.empty((k, m, draws))
    np.clip(uniforms.reshape(draws, m, k).transpose(2, 1, 0), UNIFORM_EPS,
            1.0 - UNIFORM_EPS, out=g)
    for op in (np.log, np.negative, np.log, np.negative):
        op(g, out=g)
    with np.errstate(divide="ignore"):
        g += np.log(p)[:, None, None]
    best = g[0]
    winner = np.zeros((m, draws), dtype=np.min_scalar_type(k - 1))
    won = np.empty((m, draws), dtype=winner.dtype)
    for j in range(1, k):
        np.greater(g[j], best, out=won)
        won *= j
        np.maximum(winner, won, out=winner)
        np.maximum(best, g[j], out=best)
    code = np.empty((k, draws), dtype=np.uint8)
    picked = winner == np.arange(k, dtype=winner.dtype)[:, None, None]
    np.logical_or.reduce(picked, axis=1, out=code.view(bool))
    return code.T
