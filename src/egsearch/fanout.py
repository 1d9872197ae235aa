"""Independent trials on forked workers, each pinned to its own usable CPU
(left alone, a forked child can stay on its parent's CPU), with the serial
loop's results.
"""

import os
import pickle
from contextlib import suppress


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 without `os.fork` or, as on macOS,
    without `os.sched_getaffinity`."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _pin(cpus, w=None):
    """Run this process on the one CPU cpus[w % len(cpus)], or with w None on
    all of `cpus`; with no cpus, or on an OSError, it stays where it was."""
    if cpus:
        with suppress(OSError):
            os.sched_setaffinity(0, cpus if w is None else {cpus[w % len(cpus)]})


def _map_trials(run, n) -> list:
    """[run(t) for t in range(n)], trial t on worker t mod W, W = min(n,
    usable CPUs).  Worker 0 is this process; each other worker is a forked
    child that pickles back its results, or its first error, through a pipe
    (fork: `run` is never pickled).  With W > 1, worker w runs on the one
    CPU cpus[w % len(cpus)] of this process's sorted affinity mask, which
    this process gets back.  The error raised is the lowest-numbered
    failing trial's, as in the serial loop.  Every child is reaped before
    this returns or raises, and killed first if this process is interrupted."""
    workers = min(n, _usable_cpus())
    pin = workers > 1 and hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pin else []  # this process's mask
    children, shares, done = [], [], False  # children: (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child writes one pickle, or nothing, and exits
                try:
                    _pin(cpus, w)
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(_run_share(run, range(w, n, workers)), fh)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        _pin(cpus, 0)
        shares.append(_run_share(run, range(0, n, workers)))
        for w, (_, read) in enumerate(children, 1):
            with open(read, "rb", closefd=False) as fh:
                try:
                    shares.append(pickle.load(fh))
                except Exception as exc:  # it died before writing, or its error does not unpickle
                    raise RuntimeError(f"trials {list(range(w, n, workers))} "
                                       "sent back no readable result") from exc
        done = True
    finally:
        _pin(cpus)
        for pid, read in children:
            if not done:
                from signal import SIGKILL
                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    failed = [error for _, error in shares if error is not None]
    if failed:
        raise min(failed, key=lambda error: error[0])[1]
    return [shares[t % workers][0][t // workers] for t in range(n)]


def _run_share(run, trials):
    """(results, None), or (results so far, (trial, error)) if one raises."""
    results = []
    for t in trials:
        try:
            results.append(run(t))
        except Exception as exc:
            return results, (t, exc)
    return results, None
