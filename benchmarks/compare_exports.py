"""Byte comparison of the CLI's exports between this tree and another.

Run:  python3 benchmarks/compare_exports.py --baseline-src DIR [--work DIR]

Runs one set of `egsearch` commands with the package under this checkout's
`src` and again with the package under DIR (another checkout's `src`), each
in a fresh process with the BLAS pools pinned to one thread, and prints
`same` or `DIFF` for every file either side writes.  The set: the default
search at seeds 0 and 3, a 20-epoch 6-node concat search (M 3, lam 0.3,
max-marginal derivation) at seed 1, a 10-epoch search at the search-wide
benchmark's shape at seed 1, a 20-epoch parity search at seed 2,
`evaluate` of the seed-0 export at the defaults and of the search-wide
export at that shape with 20 retrain epochs, and `baseline`,
`verify-propositions` and `dump-dataset` at their defaults.  Left out of the comparison: the
wall-clock column of metrics.csv, and the `output_dir=` and `code_file=`
lines, which name a run's own paths.  Exits 1 on any DIFF.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = 1
WIDE = ["--seed", "1", "--dataset", "two_moons", "--dataset-n", "4000", "--dim", "128",
        "--batch-size", "256"]
RUNS = {
    "search-seed0": ["search", "--seed", "0"],
    "search-seed3": ["search", "--seed", "3"],
    "search-n6-m3-concat": ["search", "--seed", "1", "--epochs", "20", "--nodes", "6",
                            "--m", "3", "--lam", "0.3", "--output-rule", "concat",
                            "--derive-mode", "max-marginal"],
    "search-wide": ["search", *WIDE, "--epochs", "10"],
    "search-parity": ["search", "--seed", "2", "--dataset", "parity", "--epochs", "20"],
    "evaluate": ["evaluate", "{search-seed0}/architecture.json"],
    "evaluate-wide": ["evaluate", "{search-wide}/architecture.json", *WIDE,
                      "--retrain-epochs", "20"],
    "baseline": ["baseline"],
    "verify-propositions": ["verify-propositions"],
    "dump-dataset": ["dump-dataset"],
}
PATH_KEYS = ("output_dir=", "code_file=")


def run(src, out, args):
    """One CLI command with the package under `src`, writing into `out`."""
    env = dict(os.environ, PYTHONPATH=str(src), EGSEARCH_OUT=str(out))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    subprocess.run([sys.executable, "-m", "egsearch.cli", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def comparable(path):
    """The file's text without its wall-clock column and path lines."""
    lines = path.read_text().splitlines()
    if path.name == "metrics.csv" and lines and lines[0].endswith(",wall_seconds"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return [line for line in lines if not line.startswith(PATH_KEYS)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-src", required=True, type=Path,
                        help="the other checkout's src directory")
    parser.add_argument("--work", type=Path, help="where the runs write (default: a temp dir)")
    args = parser.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_exports_"))
    trees = {"baseline": args.baseline_src.resolve(), "change": SRC}
    diffs = 0
    for name, argv in RUNS.items():
        for side, src in trees.items():
            out = work / side / name
            out.mkdir(parents=True, exist_ok=True)
            run(src, out, [a.format(**{k: work / side / k for k in RUNS}) for a in argv])
        files = sorted({p.name for side in trees for p in (work / side / name).iterdir()})
        for file in files:
            a, b = (work / side / name / file for side in trees)
            same = a.is_file() and b.is_file() and comparable(a) == comparable(b)
            diffs += not same
            print(f"{'same' if same else 'DIFF'}  {name}/{file}", flush=True)
    print(f"{diffs} file(s) differ; runs under {work}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
