"""Synthetic dataset generators with deterministic seeded splits.

Every generator is a pure function of its arguments; the same seed gives
bit-identical features, labels, and train/validation/test splits.  The
split ratio is 50/25/25, keeping a separate validation set for the
architecture reward.  Two moons and spirals share one helper for the
jitter, the labels and the splits; `trainer.build_dataset` picks one.
`dump_dataset` writes a dataset as text (`egsearch dump-dataset`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "Dataset",
    "make_two_moons",
    "make_spirals",
    "make_parity",
    "dump_dataset",
]

SPLIT_NAMES = ("train", "valid", "test")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    splits: dict  # name -> index array
    seed: int

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def split(self, name: str):
        idx = self.splits[name]
        return self.features[idx], self.labels[idx]


def _make_splits(n: int, rng: np.random.Generator) -> dict:
    order = rng.permutation(n)
    n_train = n // 2
    n_valid = n // 4
    return {
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_valid],
        "test": order[n_train + n_valid :],
    }


def _two_classes(x0, x1, noise, seed) -> Dataset:
    """Class 0 at the points x0 and class 1 at x1, each jittered by Gaussian
    noise, with seeded splits; the noise and the splits share one stream."""
    rng = np.random.default_rng(seed)
    features = np.concatenate([x0, x1], axis=0)
    features = features + rng.normal(0.0, noise, features.shape)
    labels = np.concatenate([np.zeros(len(x0), dtype=np.int64),
                             np.ones(len(x1), dtype=np.int64)])
    return Dataset(features, labels, _make_splits(len(features), rng), seed)


def make_two_moons(n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved half-circles with Gaussian jitter."""
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    t0 = np.linspace(0.0, np.pi, n // 2)
    t1 = np.linspace(0.0, np.pi, n - n // 2)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    return _two_classes(x0, x1, noise, seed)


def make_spirals(n: int, turns: float = 1.5, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved Archimedean spirals; more turns, harder problem."""
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    if turns <= 0:
        raise ValueError(f"turns must be > 0, got {turns}")
    parts = []
    for size, phase in ((n // 2, 0.0), (n - n // 2, np.pi)):
        t = np.linspace(0.05, 1.0, size)
        angle = t * turns * 2.0 * np.pi + phase
        parts.append(np.stack([t * np.cos(angle), t * np.sin(angle)], axis=1))
    return _two_classes(*parts, noise, seed)


def make_parity(bits: int, seed: int = 0) -> Dataset:
    """All 2^bits binary strings labeled by their XOR."""
    if not 2 <= bits <= 12:
        raise ValueError(f"bits must be in [2, 12], got {bits}")
    rows = np.array(list(product((0.0, 1.0), repeat=bits)))
    labels = rows.sum(axis=1).astype(np.int64) % 2
    rng = np.random.default_rng(seed)
    return Dataset(rows, labels, _make_splits(rows.shape[0], rng), seed)


def dump_dataset(ds: Dataset, path=None) -> str:
    """Comma-separated text dump; floats use repr for exact round-trips."""
    split_of = np.empty(ds.features.shape[0], dtype=object)
    for name in SPLIT_NAMES:
        split_of[ds.splits[name]] = name
    buf = io.StringIO()
    dims = ds.features.shape[1]
    buf.write(f"# dims={dims} classes={ds.n_classes} seed={ds.seed}\n")
    for row, label, split in zip(ds.features, ds.labels, split_of):
        cells = [repr(float(v)) for v in row] + [str(int(label)), split]
        buf.write(",".join(cells) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
