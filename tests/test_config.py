"""Config text round trip: config_to_text -> file -> parse_config_file ->
build_config gives back the RunConfig."""

import math
import string
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from egsearch.config import (
    RunConfig,
    build_config,
    config_to_text,
    parse_config_file,
    parse_value,
)


def unit(low=0.0, high=1.0):
    return st.floats(low, high, allow_nan=False)


@st.composite
def run_configs(draw):
    tau_end = draw(st.floats(1e-6, 10.0, allow_nan=False))
    return RunConfig(
        dataset=draw(st.sampled_from(["spirals", "two_moons", "parity"])),
        dataset_n=draw(st.integers(10, 10**6)),
        dataset_noise=draw(unit(0.0, 5.0)),
        dataset_turns=draw(st.floats(1e-6, 10.0, allow_nan=False)),
        dataset_bits=draw(st.integers(2, 12)),
        nodes=draw(st.integers(2, 12)),
        dim=draw(st.integers(1, 512)),
        output_rule=draw(st.sampled_from(["sum", "concat"])),
        M=draw(st.integers(1, 16)),
        lam=draw(unit()),
        tau_start=draw(st.floats(tau_end, 20.0, allow_nan=False)),
        tau_end=tau_end,
        epochs=draw(st.integers(1, 10**5)),
        batch_size=draw(st.integers(1, 4096)),
        lr_w=draw(unit(0.0, 10.0)),
        momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
        lr_alpha=draw(unit(0.0, 10.0)),
        derive_mode=draw(st.sampled_from(["mode-sample", "max-marginal"])),
        derive_draws=draw(st.integers(1, 10**6)),
        retrain_epochs=draw(st.integers(1, 10**5)),
        baseline_budget=draw(st.integers(1, 1000)),
        baseline_retrain_epochs=draw(st.integers(1, 10**5)),
        allow_empty_edges=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63)),
        output_dir=draw(st.text(string.ascii_letters + string.digits + "/._-",
                                min_size=1, max_size=40)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_config_text_round_trips_through_a_file(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_to_text(cfg))
        assert build_config(parse_config_file(path)) == cfg


FLOAT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validate_rejects_a_non_finite_float_by_name(name, value):
    cfg = RunConfig(**{name: value})
    with pytest.raises(ValueError, match=rf"non-finite config field\(s\): {name}$"):
        cfg.validate()


@pytest.mark.parametrize("line, message", [
    ("epochs=abc", "config key epochs: expected int, got 'abc'"),
    ("lam=half", "config key lam: expected float, got 'half'"),
    ("allow_empty_edges=maybe",
     "config key allow_empty_edges: expected bool, got 'maybe'"),
    ("colour=red", "unknown config key 'colour'"),
])
def test_a_bad_file_value_names_its_line_and_key(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# run\nseed=3\n{line}\n")
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("raw, value", [
    (word, True) for word in ("1", "true", "yes", "on", "TRUE")
] + [(word, False) for word in ("0", "false", "no", "off", "Off")])
def test_parse_value_reads_every_bool_spelling(raw, value):
    assert parse_value("allow_empty_edges", raw) is value
