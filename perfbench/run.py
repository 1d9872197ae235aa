"""End-to-end and per-layer benchmark of the egsearch pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every part of a round runs in a fresh
worker process (perfbench/worker.py) against the checkout's src/, with the
BLAS pools pinned to one thread.  A round is a few train processes (each one
search, with its share of the fixed-code training around it; see
workloads.py) with AUDIT_PIECES audit processes spread between them: the
host's speed drifts over seconds to minutes, so each timed phase is sampled
across the round.  search_s is the mean over the round's searches; retrain_s
and audit_s are sums.  Whole rounds are run while the next one is expected to
end within S seconds (at least one).  SETUP_SAMPLES more processes only set
up, half before the rounds and half after; setup_s is the median over them
and the train processes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (medians over rounds).
The full per-round records go to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import per_layer
from workloads import AUDIT_PIECES, BLAS_THREADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
TIME_LIMIT_S = 170  # every worker ends before this, counted from our start
SETUP_SAMPLES = 8

END_TO_END = {"setup_s": "s", "search_s": "s", "retrain_s": "s", "audit_s": "s",
              "peak_rss_mb": "MB"}


def unit_of(name):
    """Per-layer unit from the metric's name suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, hence gc counts, repeat
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, part, deadline, index=0):
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--part", part,
           "--index", str(index), "--launched-at", repr(time.time())]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{part} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_round(args, deadline):
    """Train and audit processes in turn; one record."""
    trains, audits = [], []
    n_trains = len(WORKLOADS[args.workload]["fixed_code"]["epochs"])
    per_train = AUDIT_PIECES // n_trains
    for index in range(n_trains):
        audits += [run_worker(args, "audit", deadline) for _ in range((per_train + 1) // 2)]
        trains.append(run_worker(args, "train", deadline, index))
        audits += [run_worker(args, "audit", deadline) for _ in range(per_train // 2)]
    parts = [*trains, *audits]
    record = {
        # a phase whose operations all raised reads 0; its checks say why
        "search_s": statistics.mean(t.get("search_s", 0.0) for t in trains),
        "retrain_s": sum(t.get("retrain_s", 0.0) for t in trains),
        "audit_s": sum(a.get("audit_s", 0.0) for a in audits),
        "peak_rss_mb": max(t["peak_rss_mb"] for t in trains),
        "setups_s": [t["setup_s"] for t in trains],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failed_checks": [c for p in parts for c in p["failed_checks"]],
        "parts": parts,
    }
    if args.trace:
        t, n = Counter(), Counter()
        for p in parts:
            t.update(p["trace"]["t"])
            n.update(p["trace"]["n"])
        record["per_layer"] = per_layer(t, n, trains[0]["trace"]["build_s"])
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "egsearch" / "__init__.py").is_file():
        raise SystemExit(f"no egsearch sources under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S

    def sample_setups():
        return [run_worker(args, "setup", deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES // 2)]

    setups = sample_setups()
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(args, deadline))
        took = time.monotonic() - t0
        if time.monotonic() + took > start + args.seconds:
            break
    setups += [s for r in rounds for s in r["setups_s"]] + sample_setups()

    if args.trace:
        metrics = {name: statistics.median(r["per_layer"][name] for r in rounds)
                   for name in rounds[0]["per_layer"]}
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {name: statistics.median(r[name] for r in rounds)
                   for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    failed_checks = [c for r in rounds for c in r["failed_checks"]]
    for line in failed_checks:
        print(f"check failed: {line}")
    for name in sorted(metrics):
        print(f"{name:28s} {metrics[name]:14.6g} {units[name]}")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "blas_threads": BLAS_THREADS,
              "python": sys.version.split()[0], "setups_s": setups,
              "rounds": rounds}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))


if __name__ == "__main__":
    main()
