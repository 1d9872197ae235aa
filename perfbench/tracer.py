"""Per-layer timers and counters for a traced round.

The tracer swaps wrappers into the module attributes the pipeline looks up at
call time (trainer.search_step, trainer.sample_edges, autodiff.backward,
RngState.uniform, ...), so src/egsearch itself stays unchanged.  Timers add up
perf_counter intervals; counters are exact.  "Per substep" divides by twice
the number of search steps (one weight and one logit substep per step).
"""

from __future__ import annotations

import gc
from collections import Counter
from time import perf_counter


def reachable_nodes(loss) -> int:
    """Tape nodes below `loss`: what autodiff.backward sweeps."""
    seen = set()
    stack = [loss.node] if loss.node is not None else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(t.node for t in node.inputs if t.node is not None)
    return len(seen)


def _gc_collected() -> int:
    return sum(gen["collected"] for gen in gc.get_stats())


class Tracer:
    def __init__(self):
        self.t = Counter()  # seconds per span name
        self.n = Counter()  # exact counts
        self.tapes = []  # tapes entered and not yet left, innermost last
        self.phase = None  # "step", "sample" or "retrain" while inside one
        self._saved = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _timed(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.t[key] += perf_counter() - t0
            return wrapper
        return make

    def install(self):
        from egsearch import audit, autodiff, gumbel, kernels, trainer

        tracer = self

        class TracedTape(autodiff.Tape):
            def __enter__(tape):
                tracer.tapes.append(tape)
                return super().__enter__()

            def __exit__(tape, *exc):
                tracer.tapes.pop()
                return super().__exit__(*exc)

        self._patch(autodiff, "Tape", lambda _: TracedTape)
        self._patch(trainer, "run_search", self._run_search)
        self._patch(trainer, "search_step", self._search_step)
        self._patch(trainer, "sample_edges", self._sample_edges)
        self._patch(trainer, "network_forward", self._network_forward)
        self._patch(autodiff, "backward", self._backward)
        self._patch(gumbel.RngState, "uniform", self._uniform)
        self._patch(trainer, "derive_architecture", self._timed("derive"))
        self._patch(trainer, "retrain", self._retrain)
        self._patch(kernels, "egs_hard_batch", self._egs_hard_batch)
        for leg in ("bijection", "marginal", "count"):
            self._patch(audit, f"{leg}_audit", self._timed(leg))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers ----------------------------------------------------------

    def _run_search(self, fn):
        def run_search(*args, **kwargs):
            gc.collect()
            before = _gc_collected()
            out = fn(*args, **kwargs)
            # the final collection frees the last step's graph as well, so the
            # total does not depend on where the collector last happened to run
            gc.collect()
            self.n["gc_collected"] += _gc_collected() - before
            self.n["searches"] += 1
            return out
        return run_search

    def _search_step(self, fn):
        def search_step(*args, **kwargs):
            self.phase = "step"
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t["step"] += perf_counter() - t0
                self.n["steps"] += 1
                self.phase = None
        return search_step

    def _sample_edges(self, fn):
        def sample_edges(*args, **kwargs):
            if self.phase != "step":
                return fn(*args, **kwargs)
            tape = self.tapes[-1]
            before = len(tape.nodes)
            self.phase = "sample"
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t["sample"] += perf_counter() - t0
                self.phase = "step"
                self.n["sampler_nodes"] += len(tape.nodes) - before
        return sample_edges

    def _uniform(self, fn):
        def uniform(rng, count):
            if self.phase == "sample":
                self.n["uniform_calls"] += 1
            return fn(rng, count)
        return uniform

    def _network_forward(self, fn):
        def network_forward(*args, **kwargs):
            if self.phase != "step":
                return fn(*args, **kwargs)
            tape = self.tapes[-1]
            before = len(tape.nodes)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.t["forward"] += perf_counter() - t0
            self.n["forward_nodes"] += len(tape.nodes) - before
            return out
        return network_forward

    def _backward(self, fn):
        def backward(loss):
            if self.phase == "retrain":
                self.n["retrain_steps"] += 1
            if self.phase != "step":
                return fn(loss)
            t0 = perf_counter()
            self.n["backward_nodes"] += reachable_nodes(loss)
            t1 = perf_counter()
            out = fn(loss)
            self.t["backward"] += perf_counter() - t1
            self.t["bookkeeping"] += t1 - t0  # kept out of trainer.update_ms
            return out
        return backward

    def _retrain(self, fn):
        def retrain(*args, **kwargs):
            outer, self.phase = self.phase, "retrain"
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t["retrain"] += perf_counter() - t0
                self.phase = outer
        return retrain

    def _egs_hard_batch(self, fn):
        def egs_hard_batch(*args, **kwargs):
            t0 = perf_counter()
            codes = fn(*args, **kwargs)
            self.t["kernels"] += perf_counter() - t0
            self.n["draws"] += codes.shape[0]
            return codes
        return egs_hard_batch

    # -- results -----------------------------------------------------------

    def count_live_nodes(self):
        """Tape nodes still reachable after a full collection."""
        from egsearch import autodiff

        gc.collect()
        self.n["live_nodes_end"] = sum(
            isinstance(o, autodiff.TapeNode) for o in gc.get_objects())


def per_layer(t: dict, n: dict, build_s: float) -> dict:
    """Per-layer metrics from a round's timers and counters, summed over its
    processes (the train processes and the audit processes)."""
    steps = n["steps"]
    sub = 2 * steps
    update = t["step"] - t["sample"] - t["forward"] - t["backward"] - t["bookkeeping"]
    return {
        "ensemble.sample_ms": 1e3 * t["sample"] / sub,
        "ensemble.sampler_nodes": n["sampler_nodes"] / sub,
        "gumbel.uniform_calls": n["uniform_calls"] / sub,
        "space.forward_ms": 1e3 * t["forward"] / sub,
        "space.forward_nodes": n["forward_nodes"] / sub,
        "autodiff.backward_ms": 1e3 * t["backward"] / sub,
        "autodiff.backward_nodes": n["backward_nodes"] / sub,
        "autodiff.gc_collected": n["gc_collected"] / steps,
        "autodiff.live_nodes_end": n["live_nodes_end"],
        "trainer.substep_ms": 1e3 * (t["step"] - t["bookkeeping"]) / sub,
        "trainer.update_ms": 1e3 * update / sub,
        "trainer.derive_ms": 1e3 * t["derive"] / n["searches"],
        "trainer.retrain_step_ms": 1e3 * t["retrain"] / n["retrain_steps"],
        "kernels.egs_draws_per_s": n["draws"] / t["kernels"],
        "audit.bijection_s": t["bijection"],
        "audit.marginal_s": t["marginal"],
        "audit.count_s": t["count"],
        "data.build_s": build_s,
    }
