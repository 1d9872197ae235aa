"""Synthetic dataset generators with deterministic seeded splits.

Every generator is a pure function of its arguments; the same seed gives
bit-identical features, labels, and train/validation/test splits.  The
split ratio is 50/25/25, keeping a separate validation set for the
architecture reward.  Two moons and spirals share one helper for the
jitter, the labels and the splits; `trainer.build_dataset` picks one.
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
    "load_dataset",
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


def load_dataset(source) -> Dataset:
    """Inverse of dump_dataset; accepts a path or the dumped text.

    A source with a newline, one that starts with "#" (a header alone) and
    an empty one are text; any other is a path.  Raises ValueError for a
    source without a header line, and naming the line for a header whose
    `dims=`, `classes=` or `seed=` is missing or not an integer, and for a
    row that is not dims numbers, an integer label in 0 .. classes - 1 and
    one of the split names.
    """
    text = str(source)
    if "\n" in text or text.startswith("#") or not text:
        lines = text.splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing header line")
    meta = dict(part.partition("=")[::2] for part in lines[0][1:].split())
    header = []
    for key in ("dims", "classes", "seed"):
        if key not in meta:
            raise ValueError(f"line 1: the header has no {key}=")
        header.append(_parsed(int, meta[key], f"line 1: {key}="))
    dims, classes, seed = header
    features, labels, split_names = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dims + 2:
            raise ValueError(f"line {number}: {len(cells)} fields, "
                             f"not dims + 2 = {dims + 2}")
        if cells[dims + 1] not in SPLIT_NAMES:
            raise ValueError(f"line {number}: split {cells[dims + 1]!r} is not one of "
                             f"{', '.join(SPLIT_NAMES)}")
        features.append([_parsed(float, v, f"line {number}: feature") for v in cells[:dims]])
        label = _parsed(int, cells[dims], f"line {number}: label")
        if not 0 <= label < classes:
            raise ValueError(f"line {number}: label {label} is outside 0 .. {classes - 1}, "
                             f"the header's classes={classes}")
        labels.append(label)
        split_names.append(cells[dims + 1])
    splits = {
        name: np.array(
            [i for i, s in enumerate(split_names) if s == name], dtype=np.int64
        )
        for name in SPLIT_NAMES
    }
    return Dataset(
        np.array(features, dtype=np.float64),
        np.array(labels, dtype=np.int64),
        splits,
        seed,
    )


def _parsed(kind, value, what):
    """kind(value), or a ValueError that says `what` could not be read."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} {value!r} is not {noun}") from None
