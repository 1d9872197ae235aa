"""Throughput of the batch sampling kernels the audits use.

Run:  python3 benchmarks/bench_kernels.py [--draws N] [--repeats R]

Each kernel gets a pre-drawn uniform block, so the timing is the Gumbel
transform and the arithmetic alone.
"""

import argparse
import time

import numpy as np

from egsearch import kernels
from egsearch.gumbel import RngState


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    k, m, tau = 5, 3, 0.1
    log_p = np.log(np.full(k, 1.0 / k))
    u_cat = RngState(0).uniform(args.draws * k)
    u_egs = RngState(1).uniform(args.draws * m * k)

    cases = [
        ("categorical", lambda: kernels.categorical_batch(log_p, u_cat)),
        ("egs hard", lambda: kernels.egs_hard_batch(log_p, u_egs, m)),
        ("gs soft", lambda: kernels.gs_soft_batch(log_p, u_cat, tau)),
    ]

    print(f"draws={args.draws} K={k} M={m} (best of {args.repeats})")
    print(f"{'kernel':<14}{'seconds':>10}{'draws/s':>14}")
    for name, call in cases:
        t = best_of(call, args.repeats)
        print(f"{name:<14}{t:>10.3f}{args.draws / t:>14.3g}")


if __name__ == "__main__":
    main()
