"""The reader of `egsearch.data.dump_dataset`'s text, for the tests that
read a dump back: no subcommand reads a dataset file."""

import numpy as np

from egsearch.data import SPLIT_NAMES, Dataset


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
