"""Batch Monte-Carlo sampling kernels for the audits.

The tape sampler in `ensemble` draws one code per edge per search substep;
the audits and the mode-sample derivation need 1e5-1e6 draws from one
fixed probability vector, without the relaxation or the tape.  These
kernels take a flat block of uniforms (from RngState.uniform, so draws stay
replayable) and process it in bulk with numpy.
"""

from __future__ import annotations

import numpy as np

from .gumbel import gumbel_transform

__all__ = [
    "categorical_batch",
    "egs_hard_batch",
    "gs_soft_batch",
]


def categorical_batch(log_p: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Gumbel-Max indices for `draws` rows; uniforms has draws*K entries."""
    k = log_p.shape[0]
    g = gumbel_transform(uniforms.reshape(-1, k))
    return np.argmax(log_p[None, :] + g, axis=1).astype(np.int64)


def egs_hard_batch(log_p: np.ndarray, uniforms: np.ndarray, m: int) -> np.ndarray:
    """Binary codes (draws, K): per draw, OR of M Gumbel-Max one-hots."""
    k = log_p.shape[0]
    g = gumbel_transform(uniforms.reshape(-1, m, k))
    idx = np.argmax(log_p[None, None, :] + g, axis=2)  # (draws, m)
    draws = idx.shape[0]
    codes = np.zeros((draws, k), dtype=np.uint8)
    codes[np.repeat(np.arange(draws), m), idx.reshape(-1)] = 1
    return codes


def gs_soft_batch(log_p: np.ndarray, uniforms: np.ndarray, tau: float) -> np.ndarray:
    """Gumbel-Softmax rows (draws, K) at temperature tau."""
    k = log_p.shape[0]
    g = gumbel_transform(uniforms.reshape(-1, k))
    z = (log_p[None, :] + g) / tau
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
