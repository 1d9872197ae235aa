"""One process of a round; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --launched-at T
        --part setup|train|audit [--index I] [--trace 0|1]

run.py starts this with PYTHONPATH pointing at the checkout's src/ and the
BLAS pools pinned.  Every part first times its set-up from --launched-at, the
parent's time.time() just before it started the process.

- setup: imports, build_dataset and build_state, then exit.
- train: set-up, then this process's share of the fixed-code training
  before the search, the search, the share after it, and the checks on all
  of them (see workloads.py).  Only the first train process of a round
  (--index 0) runs the baseline and the derived code's check retrain.
- audit: one `verify-propositions` run at the CLI defaults, and its checks.

With --trace 1 the part also reports the tracer's raw timers and counters.
"""

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from egsearch import audit, autodiff, trainer
from egsearch.config import RunConfig
from egsearch.space import OP_SET, ArchitectureCode

from tracer import Tracer
from workloads import AUDIT, BASELINE_SEED, CHECK_EPOCHS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# derived code must beat chance (0.5 on two balanced classes) by this much
ACC_MARGIN = 0.1
FD_STEPS = (1e-6, 1e-7, 1e-8)


class Checks:
    def __init__(self):
        self.failed = []
        self.count = 0

    def __call__(self, name, ok, detail=""):
        self.count += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")


def check_search(check, cfg, ds, state, report):
    bad = [(e, c) for e, codes in state.histogram.items() for c in codes
           if not 1 <= sum(c) <= min(cfg.M, len(c))]
    check("histogram codes have 1..min(M,K) bits", not bad, f"{bad[:3]}")
    bits = report.derived.bits
    rows = bits.sum(axis=1)
    check("derived rows have 1..min(M,K) bits",
          bool(np.all((rows >= 1) & (rows <= min(cfg.M, bits.shape[1])))),
          f"{rows.tolist()}")

    n_train = cfg.dataset_n // 2  # the documented 50/25/25 split
    check("train split size", len(ds.splits["train"]) == n_train,
          f"{len(ds.splits['train'])} != {n_train}")
    steps = cfg.epochs * -(-n_train // cfg.batch_size)
    edges = cfg.nodes * (cfg.nodes - 1) // 2
    check("steps = epochs * ceil(n_train / batch)", state.step == steps,
          f"{state.step} != {steps}")
    check("sampling_events = 2 * steps * edges",
          report.sampling_events == 2 * steps * edges,
          f"{report.sampling_events} != {2 * steps * edges}")

    losses = [v for row in report.rows for v in row[1:3]]
    check("search losses finite", all(math.isfinite(v) for v in losses))
    # the linear schedule lands on tau_end up to rounding
    check("last tau is tau_end", math.isclose(report.rows[-1][3], cfg.tau_end,
                                              rel_tol=1e-12),
          f"{report.rows[-1][3]!r} vs {cfg.tau_end!r}")


def check_gradient(check, cfg, ds, state):
    """Backward vs central differences on the first substep's batch and codes."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed).jumped(1))
    bi = rng.permutation(ds.splits["train"])[: cfg.batch_size]
    x, y = ds.features[bi], ds.labels[bi]
    with autodiff.Tape():
        loss, samples = trainer.compute_loss(state, (x, y))
        grads = autodiff.backward(loss)

    def loss_at():
        with autodiff.Tape():
            logits = trainer.network_forward(state.network, x, samples)
            return float(autodiff.cross_entropy_with_logits(logits, y).data)

    net = state.network
    coords = [(net.w_in, (0, 0)), (net.b_in, (1,)), (net.w_out, (2, 1)),
              (net.b_out, (0,))]
    for e, code in samples.items():  # one weight of an op the code selected
        on = [k for k in np.flatnonzero(code.data) if "W" in state.cell.params[e][k]]
        if on:
            coords.append((state.cell.params[e][on[0]]["W"], (0, 0)))
            break
    def mismatch(t, idx, h):
        base = t.data
        vals = []
        for step in (h, -h):
            t.data = base.copy()
            t.data[idx] += step
            vals.append(loss_at())
        t.data = base
        fd = (vals[0] - vals[1]) / (2 * h)
        g = float(grads[t][idx]) if t in grads else 0.0
        return abs(g - fd) / (1e-6 + 1e-4 * abs(fd))

    # a relu kink inside [x - h, x + h] spoils the difference quotient, not
    # the gradient (search-wide seed 409, b_in[1]: ratio 7.3 at 1e-6, 0.003
    # at 1e-8), so each coordinate passes if one of the steps agrees
    worst = max(min(mismatch(t, idx, h) for h in FD_STEPS) for t, idx in coords)
    check("backward matches central differences", worst <= 1.0, f"worst ratio {worst:.3g}")


def check_retrain(check, result, what):
    check(f"{what} loss finite", math.isfinite(result.final_loss), f"{result.final_loss}")


def check_audit(check, result):
    check("audit passes", result.ok)
    check("audit max |z| within bound", result.max_z <= audit.Z_BOUND,
          f"{result.max_z} > {audit.Z_BOUND}")
    bad = [(r.K, r.M, r.enumerated) for r in result.counts
           if r.enumerated != sum(math.comb(r.K, j) for j in range(1, min(r.M, r.K) + 1))]
    check("reachable counts = sum_r C(K, r)", not bad, f"{bad[:3]}")


def fixed_code(cfg, ops):
    """The named ops on every edge: a code whose training cost has no seed in it."""
    row = [1 if op.name in ops else 0 for op in OP_SET]
    return ArchitectureCode(n=cfg.nodes, K=len(OP_SET),
                            bits=np.array([row] * (cfg.nodes * (cfg.nodes - 1) // 2)))


class Ops:
    """Runs operations, counting attempts and failures and timing each."""

    def __init__(self, check):
        self.check = check
        self.attempted = self.failed = 0
        self.seconds = {}

    def __call__(self, key, n_ops, fn):
        self.attempted += n_ops
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted and reported, the round goes on
            self.failed += n_ops
            self.check(f"{key} raised", False, repr(exc))
            return None
        if key is not None:
            self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - t0
        return out

    def skip(self, n_ops):
        """Operations that cannot run because one they need failed."""
        self.attempted += n_ops
        self.failed += n_ops


def train_part(cfg, spec, ds, ops, index):
    """Train process `index` of the round: its share of the fixed-code
    training split around one search; returns figures for the result."""
    check = ops.check
    fixed = spec["fixed_code"]
    before, after = fixed["epochs"][index]
    first = index == 0

    def train_fixed(epochs):
        if not epochs:
            return
        result = ops("retrain_s", 1, lambda: trainer.retrain(
            fixed_code(cfg, fixed["ops"]), ds, cfg, epochs=epochs))
        if result is not None:
            check_retrain(check, result, "fixed-code retrain")

    if spec["baseline"] and first:
        # the quick start's baseline needs nothing from the search
        base_cfg = dataclasses.replace(cfg, seed=BASELINE_SEED)
        base = ops("retrain_s", cfg.baseline_budget,
                   lambda: trainer.random_search_baseline(ds, base_cfg))
        for r in base.results if base is not None else ():
            check_retrain(check, r, "baseline retrain")
    train_fixed(before)

    searched = ops("search_s", 1, lambda: trainer.run_search(cfg, ds))
    # read here: the untimed check retrain below must not set the peak
    figures = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if searched is not None:
        state, report = searched
        # recorded, not checked: on some seeds of every workload the last
        # epoch's mean train loss ends above the first's
        figures["loss_first_last"] = [report.rows[0][1], report.rows[-1][1]]
        check_search(check, cfg, ds, state, report)
    if first:
        figures["test_acc"] = check_derived(cfg, spec, ds, searched, ops)
    train_fixed(after)
    return figures


def check_derived(cfg, spec, ds, searched, ops):
    """Untimed short retrain of the derived code; returns its test accuracy."""
    if searched is None:
        ops.skip(1)  # the derived-code retrain has no code to train
        return None
    result = ops(None, 1, lambda: trainer.retrain(
        searched[1].derived, ds, cfg, epochs=CHECK_EPOCHS))
    if result is None:
        return None
    check_retrain(ops.check, result, "retrain")
    # not gated in pipeline-default: some seeds derive a cell that retrains
    # to chance even at 150 epochs (0.548 at seed 104)
    if spec["check_acc"]:
        ops.check("derived code beats chance", result.test_acc > 0.5 + ACC_MARGIN,
                  f"test_acc {result.test_acc}")
    return result.test_acc


def os_threads():
    """Threads of this process, to confirm BLAS started no pool."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh
                        if line.startswith("Threads:"))
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--part", required=True, choices=("setup", "train", "audit"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0,
                        help="which train process of the round this is")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(trainer.__file__).resolve().parents:
        sys.exit(f"egsearch imported from {trainer.__file__}, not from {src}")
    spec = WORKLOADS[args.workload]
    cfg = RunConfig(seed=args.seed % 2**31, **spec["config"]).validate()
    t0 = time.perf_counter()
    ds = trainer.build_dataset(cfg)
    build_s = time.perf_counter() - t0
    state = trainer.build_state(cfg, ds)
    out = {"setup_s": time.time() - args.launched_at}
    if args.part == "setup":
        print(json.dumps(out))
        return

    check = Checks()
    ops = Ops(check)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        if args.part == "train":
            out.update(train_part(cfg, spec, ds, ops, args.index))
        else:
            result = ops("audit_s", 1, lambda: audit.run_audit(**AUDIT))
            if result is not None:
                check_audit(check, result)
        if tracer is not None and args.part == "train" and args.index == 0:
            tracer.count_live_nodes()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.part == "train":
        check_gradient(check, cfg, ds, state)
    out.update(ops.seconds)
    out.update(attempted=ops.attempted, failed=ops.failed, checks=check.count,
               failed_checks=check.failed, os_threads=os_threads())
    if tracer is not None:
        out["trace"] = {"t": tracer.t, "n": tracer.n, "build_s": build_s}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
