"""Wall time, page faults, peak memory, the time split and tape nodes per
substep of two searches, the time of a fixed code's retrain step and of the
random-search baseline, the wall time of each leg of the property audit, the
throughput of the batch draw of hard EGS codes that the audit and the
derivation use, and the forward time of the edges' activations; writes
BENCH_search.json.

Run:  PYTHONPATH=src python3 benchmarks/bench_search.py [--repeats R]
          [--draws N] [--out BENCH_search.json]
          [--baseline-src DIR --baseline-label LABEL]

Each search runs R times at seed SEED, each time in a fresh interpreter with
the BLAS pools pinned to one thread, so its minor faults (a getrusage delta
around `run_search`) and peak RSS are its own.  After the search, the same
process runs the search again with timers wrapped around the module
attributes a step looks up at call time (`trainer.search_step`,
`trainer.sample_edges`, `trainer.network_forward`, `autodiff.backward`), so
that the timed search's wall time carries none of their cost, and splits a
substep's milliseconds into sample, forward, backward and update (the rest
of the step: the loss, the checks and the parameter updates).  It then
counts the tape nodes that one weight substep and one logit substep record
on a fresh state (the search's first draw), and one training step of
`retrain` of a fixed code (RETRAIN: the named ops on every edge, as
perfbench trains), and times that retrain in ms per step.  In the default
case it then times `random_search_baseline` at the defaults ("baseline_s":
ten 30-epoch retrains, spread over the usable CPUs, which "environment"
records).  The cases are the README's default search and a search at the
benchmark's search-wide shape.  The audit's legs (`count_audit`, `bijection_audit`, `marginal_audit`) and
`run_audit` as a whole are timed at `run_audit`'s defaults, which are
`verify-propositions`' defaults.  Beside the baseline's time
("baseline_parallelism") and each audit time ("audit_parallelism") is
that call's measured parallelism: the CPU seconds of the process and its
reaped children over the wall seconds, so a fan-out whose workers took
turns on one CPU reads about 1, not the worker count.  The batch draw is timed at each (K, M) of
KERNEL_SHAPES on blocks of `audit.MARGINAL_CHUNK_UNIFORMS` pre-drawn
uniforms, the blocks the marginal leg draws, so its timing is the kernel
alone; "derive" is the mode-sample derivation's call, one block of the
default `derive_draws` draws at the default (K, M).  Each rate is N draws
(at least one block) over their time.  The forward of each activation in
`autodiff.ACTIVATIONS` (relu, tanh and sigmoid, as the edge kernel runs
them) is timed on (64, 8) and (256, 128) arrays, the shapes of the default
search and of search-wide, in us per call.  The audit and kernel figures
are the best over R fresh pinned processes of the best of R calls (or loops
of calls) in each.  "src_lines" and "test_lines" are the line counts of
`src/egsearch/*.py` and of `tests/*.py` (as `wc -l` counts them) of this
checkout, so code that moves from the package into the tests shows in
both.

With --baseline-src, every search, audit and kernel figure is measured a
second time with the `egsearch` package under DIR (another checkout's
`src`), the two interleaved, and recorded under "baseline" with LABEL and
the line counts of DIR's `egsearch/*.py` and of `DIR/../tests/*.py`, so
one file holds before and after figures from the same session.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 1
CASES = {
    "default": {},
    "wide": {"dataset": "two_moons", "dataset_n": 4000, "dim": 128,
             "batch_size": 256, "epochs": 10},
}
BLAS_THREADS = 1
# each case's fixed-code retrain: the ops set on every edge, and epochs
RETRAIN = {"default": (("linear_relu", "linear_tanh"), 20),
           "wide": (("identity", "linear_relu"), 5)}
# (batch, dim) of the default search and of search-wide
ACTIVATION_SHAPES = ((64, 8), (256, 128))
# (K, M) of the batch draw on the marginal leg's blocks (its K is 2..8, its
# M 1..5); the derivation's (5, 2) is timed on its own blocks
KERNEL_SHAPES = ((2, 5), (8, 1), (8, 5))


def run_case(name):
    """One search in this process; returns its figures."""
    from egsearch.config import RunConfig
    from egsearch.trainer import build_dataset, run_search

    cfg = RunConfig(seed=SEED, **CASES[name])
    dataset = build_dataset(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    state, _ = run_search(cfg, dataset)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": wall,
        "steps": state.step,
        "ms_per_step": 1e3 * wall / state.step,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "peak_rss_mb": after.ru_maxrss / 1024,
        **substep_split(cfg, dataset),
        **substep_nodes(cfg, dataset),
        "retrain_step_nodes": retrain_step_nodes(name, cfg, dataset),
        "retrain_step_ms": retrain_step_ms(name, cfg, dataset),
        **(baseline_seconds(cfg, dataset) if name == "default" else {}),
    }


def substep_split(cfg, dataset):
    """ms per substep of a second search, split by timers wrapped around the
    module attributes a search step looks up at call time."""
    from egsearch import autodiff, trainer

    seconds = dict.fromkeys(("step", "sample", "forward", "backward"), 0.0)
    saved = []

    def wrap(owner, attr, key):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0

        setattr(owner, attr, timed)

    wrap(trainer, "search_step", "step")
    wrap(trainer, "sample_edges", "sample")
    wrap(trainer, "network_forward", "forward")
    wrap(autodiff, "backward", "backward")
    try:
        state, _ = trainer.run_search(cfg, dataset)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    sub = 2 * state.step
    rest = seconds["step"] - seconds["sample"] - seconds["forward"] - seconds["backward"]
    return {"substep_ms": 1e3 * seconds["step"] / sub,
            **{f"{key}_ms": 1e3 * seconds[key] / sub for key in ("sample", "forward", "backward")},
            "update_ms": 1e3 * rest / sub}


def cpu_seconds():
    """CPU seconds of this process and of its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in map(resource.getrusage,
                                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def timed(fn):
    """(wall seconds of fn(), parallelism): the parallelism is the CPU
    seconds of this process and its reaped children over those wall
    seconds, about 1 for one busy CPU and W for W workers that each had
    their own."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return wall, (cpu_seconds() - c0) / wall


def baseline_seconds(cfg, dataset):
    """Wall time of `random_search_baseline` at the config's budget and
    epochs (its trials spread over the usable CPUs), and its parallelism."""
    from egsearch.trainer import random_search_baseline

    wall, parallelism = timed(lambda: random_search_baseline(dataset, cfg))
    return {"baseline_s": wall, "baseline_parallelism": parallelism}


def retrain_code(name, cfg):
    """The case's RETRAIN code: its ops set on every edge."""
    from egsearch.space import OP_SET, ArchitectureCode, num_edges

    row = [1 if op.name in RETRAIN[name][0] else 0 for op in OP_SET]
    return ArchitectureCode(n=cfg.nodes, K=len(OP_SET),
                            bits=np.array([row] * num_edges(cfg.nodes), dtype=np.uint8))


def retrain_step_ms(name, cfg, dataset):
    """ms per training step of `retrain` of the case's RETRAIN code, its
    accuracy passes included."""
    from egsearch.trainer import retrain

    epochs = RETRAIN[name][1]
    per_epoch = -(-len(dataset.splits["train"]) // cfg.batch_size)
    t0 = time.perf_counter()
    retrain(retrain_code(name, cfg), dataset, cfg, epochs=epochs)
    return 1e3 * (time.perf_counter() - t0) / (epochs * per_epoch)


def retrain_step_nodes(name, cfg, dataset):
    """Tape nodes of one `retrain` training step of the case's RETRAIN code
    (its forward and loss, as `retrain` records them), on fresh weights and
    the codes `retrain` builds (`trainer._constant_samples`)."""
    from egsearch import autodiff as ad
    from egsearch.trainer import _constant_samples, make_network, network_forward

    code = retrain_code(name, cfg)
    network = make_network(dataset.features.shape[1], dataset.n_classes, cfg,
                           np.random.default_rng(cfg.seed))
    samples = _constant_samples(code)
    x, y = dataset.split("train")
    with ad.Tape() as tape:
        logits = network_forward(network, x[:cfg.batch_size], samples)
        ad.cross_entropy_with_logits(logits, y[:cfg.batch_size])
    return len(tape.nodes)


def substep_nodes(cfg, dataset):
    """Tape nodes of the first weight substep and the first logit substep."""
    from egsearch import autodiff as ad
    from egsearch.trainer import build_state, compute_loss

    state = build_state(cfg, dataset)
    counts = {}
    for name, reach, split in (("weight", "weights", "train"),
                               ("logit", "logits", "valid")):
        x, y = dataset.split(split)
        with ad.Tape() as tape:
            compute_loss(state, (x[:cfg.batch_size], y[:cfg.batch_size]), reach=reach)
        counts[f"{name}_substep_nodes"] = len(tape.nodes)
    return counts


def spawn(src, *args):
    """Run this script with `args` in a fresh pinned process that imports
    egsearch from `src` (None: this process's path); returns its JSON."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    if src is not None:
        env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def py_lines(directory):
    """Lines of the `*.py` files in `directory`, as `wc -l` counts them."""
    return sum(path.read_text().count("\n") for path in sorted(Path(directory).glob("*.py")))


def line_counts(src):
    """{"src_lines", "test_lines"}: the lines of the `egsearch` package under
    `src`, and of the tests beside it (`src/../tests`)."""
    return {"src_lines": py_lines(Path(src, "egsearch")),
            "test_lines": py_lines(Path(src).resolve().parent / "tests")}


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kernel_rates(draws, repeats):
    from egsearch import audit, kernels
    from egsearch.config import RunConfig
    from egsearch.gumbel import RngState
    from egsearch.space import OP_SET

    shapes = {f"audit K{k} M{m}": (k, m, audit.MARGINAL_CHUNK_UNIFORMS // (m * k))
              for k, m in KERNEL_SHAPES}
    cfg = RunConfig()
    shapes["derive"] = (len(OP_SET), cfg.M, cfg.derive_draws)
    rates = {}
    for name, (k, m, block) in shapes.items():
        p = np.random.default_rng(k * 10 + m).dirichlet(np.ones(k))
        u = RngState(1).uniform(block * m * k)
        calls = max(1, draws // block)

        def run():
            for _ in range(calls):
                kernels.egs_hard_batch(p, u, m)

        t = best_of(run, repeats)
        rates[name] = {"K": k, "M": m, "block_draws": block, "calls": calls,
                       "seconds": t, "draws_per_s": calls * block / t}
    return {"draws": draws, "kernels": rates, **audit_times(repeats),
            "activations_us": activation_times(repeats)}


def audit_times(repeats):
    """{"audit_s", "audit_parallelism"}: the seconds of each audit leg, and
    of `run_audit`, at `run_audit`'s defaults, the best of R calls, and that
    call's parallelism (`timed`)."""
    import inspect

    from egsearch import audit

    d = {name: arg.default
         for name, arg in inspect.signature(audit.run_audit).parameters.items()}
    legs = {
        "count": lambda: audit.count_audit(k_max=d["k_max"], m_max=d["m_max"]),
        "bijection": lambda: audit.bijection_audit(seed=d["seed"]),
        "marginal": lambda: audit.marginal_audit(configs=d["configs"], draws=d["draws"],
                                                 seed=d["seed"]),
        "run_audit": audit.run_audit,
    }
    best = {name: min(timed(leg) for _ in range(repeats)) for name, leg in legs.items()}
    return {"audit_s": {name: wall for name, (wall, _) in best.items()},
            "audit_parallelism": {name: par for name, (_, par) in best.items()}}


def activation_times(repeats):
    """Forward time of each activation, the `autodiff.ACTIVATIONS` forward
    that the edge kernel runs, on an array, in us per call, keyed
    "name batchxdim"."""
    from egsearch import autodiff as ad

    rng = np.random.default_rng(0)
    out = {}
    for shape in ACTIVATION_SHAPES:
        x = rng.normal(size=shape)
        loops = max(20, 400_000 // x.size)
        for name, (forward, _) in ad.ACTIVATIONS.items():

            def run():
                for _ in range(loops):
                    forward(x)

            out[f"{name} {shape[0]}x{shape[1]}"] = 1e6 * best_of(run, repeats) / loops
    return out


def best_kernels(records):
    """The fastest of each kernel figure over several processes' records."""
    best = dict(records[0])
    best["kernels"] = {name: max((r["kernels"][name] for r in records),
                                 key=lambda k: k["draws_per_s"])
                       for name in records[0]["kernels"]}
    for key in ("audit_s", "activations_us"):
        best[key] = {name: min(r[key][name] for r in records) for name in records[0][key]}
    # each leg's parallelism is that of its fastest call
    best["audit_parallelism"] = {
        name: min(records, key=lambda r: r["audit_s"][name])["audit_parallelism"][name]
        for name in records[0]["audit_s"]}
    return best


def summarise(runs):
    return {name: {"config": CASES[name], "seed": SEED, "runs": r,
                   "median": {key: statistics.median(x[key] for x in r)
                              for key in r[0]}}
            for name, r in runs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--draws", type=int, default=1_000_000)
    parser.add_argument("--out", default="BENCH_search.json")
    parser.add_argument("--baseline-src", metavar="DIR",
                        help="also measure the egsearch package under DIR")
    parser.add_argument("--baseline-label", default="baseline",
                        help="what the baseline is, e.g. its commit")
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    parser.add_argument("--kernels", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case)))
        return
    if args.kernels:
        print(json.dumps(kernel_rates(args.draws, args.repeats)))
        return

    sources = {"this": None}
    lines = {"this": line_counts(SRC)}
    if args.baseline_src:
        sources["baseline"] = os.path.abspath(args.baseline_src)
        lines["baseline"] = line_counts(sources["baseline"])
    # the trees take turns within each repeat, so a drift of the host's
    # speed falls on both
    runs = {label: {name: [] for name in CASES} for label in sources}
    kernels = {label: [] for label in sources}
    for _ in range(args.repeats):
        for label, src in sources.items():
            for name in CASES:
                runs[label][name].append(spawn(src, "--case", name))
            kernels[label].append(spawn(src, "--kernels", "--repeats", str(args.repeats),
                                        "--draws", str(args.draws)))
    measured = {label: (summarise(runs[label]), best_kernels(kernels[label]))
                for label in sources}
    searches, kernels = measured["this"]
    record = {
        "environment": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "libc": list(platform.libc_ver()), "cpu_count": os.cpu_count(),
            "usable_cpus": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                            else os.cpu_count()),
            "blas_threads": BLAS_THREADS,
        },
        **lines["this"],
        "searches": searches,
        "kernels": kernels,
    }
    if args.baseline_src:
        base_searches, base_kernels = measured["baseline"]
        record["baseline"] = {"label": args.baseline_label, **lines["baseline"],
                              "searches": base_searches, "kernels": base_kernels}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    for label, (searches, kernels) in measured.items():
        print(f"[{label}] src/egsearch: {lines[label]['src_lines']} lines, "
              f"tests: {lines[label]['test_lines']} lines")
        for name, s in searches.items():
            m = s["median"]
            print(f"{name:<8} {m['wall_s']:8.3f} s {m['ms_per_step']:8.3f} ms/step "
                  f"{m['minor_faults']:>9.0f} faults {m['peak_rss_mb']:8.1f} MB "
                  f"{m['weight_substep_nodes']:>4} / {m['logit_substep_nodes']:>4} / "
                  f"{m['retrain_step_nodes']:>4} nodes")
            print(f"{'':<8} substep {m['substep_ms']:.4f} ms: sample {m['sample_ms']:.4f} "
                  f"forward {m['forward_ms']:.4f} backward {m['backward_ms']:.4f} "
                  f"update {m['update_ms']:.4f}; retrain step {m['retrain_step_ms']:.4f} ms")
            if "baseline_s" in m:
                print(f"{'':<8} random-search baseline {m['baseline_s']:.3f} s, "
                      f"parallelism {m['baseline_parallelism']:.2f}")
        for name, k in kernels["kernels"].items():
            print(f"{name:<16} {k['draws_per_s']:12.4g} draws/s")
        for name, sec in kernels["audit_s"].items():
            print(f"audit {name:<10} {sec:12.3f} s, parallelism "
                  f"{kernels['audit_parallelism'][name]:.2f}")
        for name, us in kernels["activations_us"].items():
            print(f"{name:<16} {us:12.2f} us")


if __name__ == "__main__":
    main()
