"""Command-line entry point for searches, evaluations, and audits.

Subcommands: search, evaluate, baseline, verify-propositions, and
dump-dataset.  Configuration merges three layers with rising precedence:
built-in defaults, a key=value config file (--config), and per-field
flags.  The EGSEARCH_OUT environment variable overrides the output
directory from any layer.

Exit status: 0 on success, 1 when an audit invariant fails or a run
diverges, 2 when an error contract fires (bad config, unreadable or
mismatched inputs).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audit import run_audit
from .config import RunConfig, build_config, config_to_text, parse_config_file, parse_value
from .data import dump_dataset
from .space import edge_op_names, export_architecture, export_dot, parse_architecture
from .trainer import (
    SearchDiverged,
    build_dataset,
    metrics_csv,
    random_search_baseline,
    retrain,
    run_search,
)

__all__ = ["main"]

OUT_ENV = "EGSEARCH_OUT"
# verify-propositions' int flags: run_audit's parameters, with its defaults
AUDIT_FLAGS = inspect.signature(run_audit).parameters


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    group.add_argument("--config", metavar="FILE", help="key=value config file")
    for f in fields(RunConfig):
        group.add_argument("--" + f.name.lower().replace("_", "-"), dest=f.name,
                           metavar=f.type.upper())


def _config_from(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    flag_values = {f.name: parse_value(f.name, raw) for f in fields(RunConfig)
                   if (raw := getattr(args, f.name, None)) is not None}
    return build_config(file_values, flag_values)


def _out_dir(default: str) -> Path:
    out = Path(os.environ.get(OUT_ENV) or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _edge_ops_lines(code) -> list:
    return [f"edge {e}: {names or 'none'}" for e, names in edge_op_names(code)]


def _accuracy_block(result) -> str:
    return (
        f"train_acc={result.train_acc!r}\n"
        f"valid_acc={result.valid_acc!r}\n"
        f"test_acc={result.test_acc!r}\n"
        f"final_loss={result.final_loss!r}\n"
    )


def cmd_search(args) -> int:
    cfg = _config_from(args)
    out = _out_dir(cfg.output_dir)
    state, report = run_search(cfg)
    _write(out / "metrics.csv", metrics_csv(report))
    _write(out / "architecture.json", export_architecture(report.derived))
    _write(out / "architecture.dot", export_dot(report.derived))
    last = report.rows[-1]
    summary = "\n".join(
        [
            "search summary",
            "",
            "python={}.{}.{}".format(*sys.version_info[:3]),
            f"numpy={np.__version__}",
            "",
            "config:",
            config_to_text(cfg).rstrip(),
            "",
            f"steps={state.step}",
            f"sampling_events={report.sampling_events}",
            f"final_train_loss={last[1]!r}",
            f"final_valid_loss={last[2]!r}",
            f"derived_bits={int(report.derived.bit_count())}",
            *_edge_ops_lines(report.derived),
        ]
    ) + "\n"
    _write(out / "summary.txt", summary)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    out = _out_dir(cfg.output_dir)
    try:
        code = parse_architecture(Path(args.code_file).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # decode, JSON (too deep) or content
        raise ValueError(f"{args.code_file}: {exc}") from None
    result = retrain(code, build_dataset(cfg), cfg)
    text = "\n".join(
        [
            "evaluation report",
            f"code_file={args.code_file}",
            f"derived_bits={int(code.bit_count())}",
            *_edge_ops_lines(code),
            _accuracy_block(result).rstrip(),
        ]
    ) + "\n"
    _write(out / "evaluation.txt", text)
    print(text, end="")
    return 0


def cmd_baseline(args) -> int:
    cfg = _config_from(args)
    out = _out_dir(cfg.output_dir)
    baseline = random_search_baseline(build_dataset(cfg), cfg)
    parts = [
        "baseline report",
        f"budget={len(baseline.results)}",
        "",
    ]
    for i, r in enumerate(baseline.results):
        parts += [f"trial={i}", f"bits={int(r.code.bit_count())}",
                  _accuracy_block(r).rstrip(), ""]
    parts += ["best (by valid_acc)",
              f"bits={int(baseline.best.code.bit_count())}",
              _accuracy_block(baseline.best).rstrip()]
    text = "\n".join(parts) + "\n"
    _write(out / "baseline.txt", text)
    print(text, end="")
    return 0


def cmd_verify_propositions(args) -> int:
    result = run_audit(**{name: getattr(args, name) for name in AUDIT_FLAGS})
    print(result.report, end="")
    _write(_out_dir(args.out) / "audit.txt", result.report)
    return 0 if result.ok else 1


def cmd_dump_dataset(args) -> int:
    cfg = _config_from(args)
    out = _out_dir(cfg.output_dir)
    _write(out / "dataset.txt", dump_dataset(build_dataset(cfg)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egsearch",
        description="architecture search over binary-coded DAG cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the search and export the result")
    _add_config_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="retrain an exported code and report accuracy")
    p.add_argument("code_file", help="architecture export to evaluate")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="random-search control: best of budget")
    _add_config_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "verify-propositions",
        help="audit sampler properties: bijection, marginals, reachable counts",
    )
    for name, param in AUDIT_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=param.default)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_verify_propositions)

    p = sub.add_parser("dump-dataset", help="write the configured dataset as text")
    _add_config_flags(p)
    p.set_defaults(func=cmd_dump_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
