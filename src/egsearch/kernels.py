"""The batch draw of hard EGS codes for the audit and the derivation.

The audit and the mode-sample derivation need 1e5-1e6 hard codes from one
fixed probability vector, without the relaxation or the tape.  They draw
them here, on the trainer's definition of a draw (`gumbel.noisy_scores` and
`gumbel.hard_code`), from a flat block of uniforms taken from
RngState.uniform, so draws stay replayable.  Callers look the kernel up as
`kernels.egs_hard_batch`, so a tracer can wrap it.
"""

from __future__ import annotations

import numpy as np

from .gumbel import hard_code, noisy_scores

__all__ = ["egs_hard_batch"]


def egs_hard_batch(p: np.ndarray, uniforms: np.ndarray, m: int) -> np.ndarray:
    """Binary codes (draws, K) of p (K,): per draw, OR of M Gumbel-Max
    one-hots.  uniforms has draws*M*K entries in (draw, component,
    category) order."""
    return hard_code(noisy_scores(p, uniforms.reshape(-1, m, p.shape[-1])))
