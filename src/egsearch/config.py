"""Run configuration: documented defaults, key=value files, flag overrides.

Precedence is flags > file > defaults.  The config file format is flat
`key=value` lines; blank lines and lines starting with # are ignored.  File
values and flags are read by the same `parse_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["RunConfig", "parse_value", "parse_config_file", "build_config", "config_to_text"]


@dataclass
class RunConfig:
    # dataset: generator name and its knobs (unused knobs are ignored)
    dataset: str = "spirals"
    dataset_n: int = 1000
    dataset_noise: float = 0.1
    dataset_turns: float = 1.5
    dataset_bits: int = 6

    # cell dimensions
    nodes: int = 4
    dim: int = 8
    output_rule: str = "sum"

    # sampler
    M: int = 2
    lam: float = 0.5
    tau_start: float = 1.0
    tau_end: float = 0.1

    # optimization
    epochs: int = 150
    batch_size: int = 64
    lr_w: float = 0.05
    momentum: float = 0.9
    lr_alpha: float = 0.5

    # derivation and evaluation
    derive_mode: str = "mode-sample"
    derive_draws: int = 1000
    retrain_epochs: int = 150
    baseline_budget: int = 10
    baseline_retrain_epochs: int = 30
    allow_empty_edges: bool = True

    seed: int = 0
    output_dir: str = "runs"

    def validate(self) -> "RunConfig":
        nonfinite = [f.name for f in fields(self)
                     if f.type == "float" and not math.isfinite(getattr(self, f.name))]
        if nonfinite:
            raise ValueError(f"non-finite config field(s): {', '.join(nonfinite)}")
        checks = [
            (self.dataset in ("spirals", "two_moons", "parity"), "dataset"),
            (self.dataset_n >= 10, "dataset_n"),
            (self.dataset_noise >= 0, "dataset_noise"),
            (self.dataset_turns > 0, "dataset_turns"),
            (2 <= self.dataset_bits <= 12, "dataset_bits"),
            (self.nodes >= 2, "nodes"),
            (self.dim >= 1, "dim"),
            (self.output_rule in ("sum", "concat"), "output_rule"),
            (self.M >= 1, "M"),
            (0.0 <= self.lam <= 1.0, "lam"),
            (0.0 < self.tau_end <= self.tau_start, "tau_start/tau_end"),
            (self.epochs >= 1, "epochs"),
            (self.batch_size >= 1, "batch_size"),
            (self.lr_w >= 0, "lr_w"),
            (0.0 <= self.momentum < 1.0, "momentum"),
            (self.lr_alpha >= 0, "lr_alpha"),
            (self.derive_mode in ("mode-sample", "max-marginal"), "derive_mode"),
            (self.derive_draws >= 1, "derive_draws"),
            (self.retrain_epochs >= 1, "retrain_epochs"),
            (self.baseline_budget >= 1, "baseline_budget"),
            (self.baseline_retrain_epochs >= 1, "baseline_retrain_epochs"),
            (self.seed >= 0, "seed"),
        ]
        bad = [name for ok, name in checks if not ok]
        if bad:
            raise ValueError(f"invalid config field(s): {', '.join(bad)}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_PARSERS = {"str": str, "int": int, "float": float,
            "bool": lambda raw: _BOOLS[raw.lower()]}


def parse_value(name: str, raw: str):
    """Read the text of config field `name` as the field's type.  Errors
    name the key."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind, raw = _FIELD_TYPES[name], raw.strip()
    try:
        return _PARSERS[kind](raw)
    except (KeyError, ValueError):
        raise ValueError(f"config key {name}: expected {kind}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    """Read a flat key=value file into a {field: value} dict."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                try:
                    out[key.strip()] = parse_value(key.strip(), value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised by the read, not by a line's check
        raise ValueError(f"{path}: {exc}") from None
    return out


def build_config(file_values=None, flag_values=None) -> RunConfig:
    """Merge defaults, file values, and flag overrides, then validate."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (flag_values or {}).items() if v is not None})
    return RunConfig(**merged).validate()


def config_to_text(cfg: RunConfig) -> str:
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"
