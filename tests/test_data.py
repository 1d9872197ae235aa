"""Dataset generators: determinism, balance, splits, dump/load."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch.data import (
    dump_dataset,
    make_parity,
    make_spirals,
    make_two_moons,
)
from datafile import load_dataset


def check_splits(ds):
    n = ds.features.shape[0]
    all_idx = np.concatenate([ds.splits[k] for k in ("train", "valid", "test")])
    assert sorted(all_idx.tolist()) == list(range(n))  # disjoint and covering
    assert len(ds.splits["train"]) == n // 2
    assert len(ds.splits["valid"]) == n // 4


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: make_two_moons(200, noise=0.1, seed=seed),
        lambda seed: make_spirals(200, turns=1.5, noise=0.1, seed=seed),
        lambda seed: make_parity(6, seed=seed),
    ],
)
def test_deterministic_and_well_formed(make):
    a = make(42)
    b = make(42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    for k in ("train", "valid", "test"):
        assert np.array_equal(a.splits[k], b.splits[k])
    assert np.all(np.isfinite(a.features))
    check_splits(a)
    c = make(43)
    assert not np.array_equal(a.features, c.features) or not np.array_equal(
        a.splits["train"], c.splits["train"]
    )


def test_two_moons_balance_and_margin():
    ds = make_two_moons(201, noise=0.0, seed=1)
    counts = np.bincount(ds.labels)
    assert abs(counts[0] - counts[1]) <= 1
    # noiseless moons are separated by the known midline y = 0.25
    upper = ds.features[ds.labels == 0]
    lower = ds.features[ds.labels == 1]
    assert upper[:, 1].min() > -0.01
    assert lower[:, 1].max() < 0.51
    assert upper[:, 1].mean() > lower[:, 1].mean()


def test_spirals_balance_and_interleaving():
    ds = make_spirals(400, turns=1.0, noise=0.0, seed=2)
    counts = np.bincount(ds.labels)
    assert abs(counts[0] - counts[1]) <= 1
    radii = np.linalg.norm(ds.features, axis=1)
    assert radii.max() <= 1.05
    # a linear probe cannot separate interleaved spirals
    X = np.concatenate([ds.features, np.ones((400, 1))], axis=1)
    w, *_ = np.linalg.lstsq(X, 2.0 * ds.labels - 1.0, rcond=None)
    acc = ((X @ w > 0).astype(int) == ds.labels).mean()
    assert acc < 0.7


def test_parity_truth_table():
    ds = make_parity(2, seed=0)
    table = {tuple(int(v) for v in row): int(lab) for row, lab in zip(ds.features, ds.labels)}
    assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_parity_balance_and_linear_failure():
    ds = make_parity(8, seed=3)
    counts = np.bincount(ds.labels)
    assert counts[0] == counts[1] == 128
    # least squares on the full enumeration stays at chance

    X = np.concatenate([ds.features, np.ones((256, 1))], axis=1)
    w, *_ = np.linalg.lstsq(X, 2.0 * ds.labels - 1.0, rcond=None)
    acc = ((X @ w > 0).astype(int) == ds.labels).mean()
    assert abs(acc - 0.5) <= 0.05


def test_parity_rejects_out_of_range():
    for bits in (1, 13):
        with pytest.raises(ValueError):
            make_parity(bits)


def test_generator_input_validation():
    with pytest.raises(ValueError):
        make_two_moons(5)
    with pytest.raises(ValueError):
        make_two_moons(100, noise=-0.1)
    with pytest.raises(ValueError):
        make_spirals(100, turns=0.0)


def test_dump_load_round_trip():
    ds = make_spirals(60, turns=1.5, noise=0.1, seed=7)
    text = dump_dataset(ds)
    back = load_dataset(text)
    assert np.array_equal(back.features, ds.features)  # repr floats round-trip
    assert np.array_equal(back.labels, ds.labels)
    assert back.seed == ds.seed
    for k in ("train", "valid", "test"):
        assert sorted(back.splits[k].tolist()) == sorted(ds.splits[k].tolist())


def test_dump_header_format(tmp_path):
    ds = make_two_moons(40, seed=9)
    path = tmp_path / "moons.csv"
    dump_dataset(ds, path)
    first = path.read_text().splitlines()[0]
    assert first == "# dims=2 classes=2 seed=9"


def test_dump_bytes_deterministic():
    a = dump_dataset(make_parity(5, seed=4))
    b = dump_dataset(make_parity(5, seed=4))
    assert a == b


GENERATED = st.one_of(
    st.builds(make_two_moons, n=st.integers(10, 120), noise=st.floats(0.0, 2.0),
              seed=st.integers(0, 2**32)),
    st.builds(make_spirals, n=st.integers(10, 120), turns=st.floats(0.1, 5.0),
              noise=st.floats(0.0, 2.0), seed=st.integers(0, 2**32)),
    st.builds(make_parity, bits=st.integers(2, 7), seed=st.integers(0, 2**32)),
)


@settings(max_examples=100, deadline=None)
@given(ds=GENERATED)
def test_load_dump_round_trips_every_generator(ds):
    back = load_dataset(dump_dataset(ds))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.seed == ds.seed
    for name in ("train", "valid", "test"):
        assert np.array_equal(back.splits[name], np.sort(ds.splits[name]))


@pytest.mark.parametrize("text, message", [
    ("# dims=2 classes=2 seed=0\n0.1,0.2,1,training\n", "line 2: split 'training'"),
    ("# dims=2 classes=2\n0.1,0.2,1,train\n", "line 1: the header has no seed="),
    ("# dims=2 classes=2 seed=0\n0.1,0.2,1,train\n\n0.1,1,valid\n", "line 4: 3 fields"),
    ("# dims=two classes=2 seed=0\n0.1,0.2,1,train\n", "line 1: dims= 'two' is not an integer"),
    ("# dims=2 classes=2 seed=0.5\n0.1,0.2,1,train\n", "line 1: seed= '0.5' is not an integer"),
    ("# dims=2 classes=2 seed=0\n0.1,0.2,1,train\n0.1,x,0,test\n",
     "line 3: feature 'x' is not a number"),
    ("# dims=2 classes=2 seed=0\n0.1,0.2,one,valid\n", "line 2: label 'one' is not an integer"),
    ("# dims=2 classes=2", "line 1: the header has no seed="),
    ("# dims=x seed=0", "line 1: dims= 'x' is not an integer"),
    ("# dims=1 seed=0\n0.1,1,train\n", "line 1: the header has no classes="),
    ("# dims=1 classes=two seed=0\n0.1,1,train\n", "line 1: classes= 'two' is not an integer"),
    ("# dims=1 classes=2 seed=0\n0.1,-1,train\n0.2,5,valid\n",
     "line 2: label -1 is outside 0 .. 1, the header's classes=2"),
    ("# dims=1 classes=2 seed=0\n0.1,1,train\n0.2,2,valid\n",
     "line 3: label 2 is outside 0 .. 1"),
    ("", "missing header line"),
    ("0.1,0.2,1,train\n", "missing header line"),
])
def test_load_refuses_a_line_it_cannot_place(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(text)
