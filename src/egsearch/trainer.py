"""Joint optimization of network weights and architecture distributions.

Each search step alternates two substeps: sample per-edge binary codes and
update the op weights on a training batch, then resample and update the
per-edge logits on a validation batch.  The weight substep runs the network
itself and tells the sampler to draw only the hard codes: they are
constants, the logits are not read on the tape, and only the sampled ops
run.  The logit substep runs `SearchState.frozen`, a view built once per
search (`Network.constant()`) in which the weights are constants and the
logits are the network's own tensor; the codes are the sampler's one node
on the logits, whose backward passes the relaxation's gradient straight
through, so one ordinary backward pass carries the loss's gradient to the
logits, and no gradient is computed for a constant weight.  Either way the
network is one tape node (`network_forward`, which with `make_network` this
module takes from `space`), and it reads every edge's code from one (E, K)
tensor (`Codes`).

The weights are views of one flat array that `MomentumSGD` updates in place,
and the logits are updated in place too, so the frozen view, and any code
holding a parameter's `.data`, sees each update.

The temperature anneals linearly from tau_start to tau_end over the run.
After the search, the learned edge distributions are collapsed into one
concrete architecture code, which is retrained from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fanout, kernels
from .config import RunConfig
from .data import Dataset, make_parity, make_spirals, make_two_moons
from .gumbel import (
    RngState,
    check_simplex,
    draw_scores,
    egs_sample_of,
    hard_code,
    marginal_inclusion_oracle,
)
from .space import (
    CODE_PLACE,
    OP_SET,
    ArchitectureCode,
    Codes,
    Network,
    code_bits,
    edge_list,
    make_network,
    network_forward,
    num_edges,
)

__all__ = [
    "MomentumSGD",
    "SearchState",
    "SearchReport",
    "RetrainResult",
    "BaselineResult",
    "SearchDiverged",
    "build_dataset",
    "build_state",
    "compute_loss",
    "search_step",
    "run_search",
    "derive_architecture",
    "retrain",
    "random_search_baseline",
    "metrics_csv",
]


class SearchDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries the sampling context."""


# resampling the architecture every step occasionally produces huge weight
# gradients; without this bound plain momentum at the default rates diverges
GRAD_CLIP_NORM = 5.0


class MomentumSGD:
    """SGD with momentum, the step clipped to a global gradient norm, over
    tensors whose data it holds as views of one flat array.

    Building it copies each tensor's data into its slice of the flat array
    and rebinds `.data` to that view.  A step updates the velocities and
    the weights in place with whole-array ops, and each velocity is what
    the per-tensor rule gives bit for bit: v = g on a tensor's first
    gradient, v = momentum * v + g after it, v = momentum * v on a step
    without one, each g scaled by GRAD_CLIP_NORM / |g| when the norm over
    the step's gradients exceeds it.  The squared norm is the sum, in
    tensor order, of each gradient's own (g * g).sum().  A tensor with
    neither a gradient nor a velocity has a velocity of +0.0 (lr and
    momentum are never negative), and subtracting +0.0 leaves its bits.
    """

    def __init__(self, tensors):
        self.tensors = list(tensors)
        sizes = [t.data.size for t in self.tensors]
        self.flat = np.empty(sum(sizes))
        self.parts, self.views = [], []
        start = 0
        for t, size in zip(self.tensors, sizes):
            part = slice(start, start + size)
            view = self.flat[part].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self.parts.append(part)
            self.views.append(view)
            start += size
        # allocated at the first step: a state that is built and never
        # stepped holds no velocities
        self.velocity = self.slots = None
        self.has_velocity = [False] * len(self.tensors)

    def step(self, grads: dict, lr: float, momentum: float):
        for i, (t, view) in enumerate(zip(self.tensors, self.views)):
            if t.data is not view:
                raise ValueError(f"weight {i} {t!r}: its .data was rebound away from the "
                                 "optimizer's flat array, so no step would reach it")
        if self.velocity is None:
            self.velocity = np.zeros_like(self.flat)
            self.slots = [self.velocity[part].reshape(view.shape)
                          for part, view in zip(self.parts, self.views)]
        fed = [(i, g) for i, t in enumerate(self.tensors) if (g := grads.get(t)) is not None]
        total = 0.0
        for _, g in fed:
            total += float(np.add.reduce(g * g, None))  # (g * g).sum(), unwrapped
        clip = GRAD_CLIP_NORM / np.sqrt(total) if total > GRAD_CLIP_NORM**2 else None
        self.velocity *= momentum
        for i, g in fed:
            if clip is not None:
                g = g * clip
            v = self.slots[i]
            if self.has_velocity[i]:
                v += g
            else:  # a copy keeps the sign of a -0.0 gradient
                v[...] = g
                self.has_velocity[i] = True
        self.flat -= lr * self.velocity


@dataclass
class SearchState:
    cfg: RunConfig
    total_steps: int
    network: Network
    tau: float
    step: int
    rng: RngState
    optimizer: MomentumSGD  # holds every weight of the network
    frozen: Network  # the logit substep's view: weights constant, same logits
    code_counts: np.ndarray  # (E, 2**K) draws of each code per edge

    @property
    def cell(self) -> Network:
        """The network, under the name `perfbench/worker.py` reads."""
        return self.network

    def weights(self) -> list:
        return self.network.weights()

    @property
    def histogram(self) -> dict:
        """edge -> {code tuple: count} over every edge drawn so far, from
        code_counts (a code's column is its integer, `space.CODE_PLACE`)."""
        out = {}
        for e, counts in zip(edge_list(self.network.n), self.code_counts):
            drawn = np.flatnonzero(counts)
            if drawn.size:
                out[e] = {tuple(code_bits(c).tolist()): int(counts[c]) for c in drawn}
        return out


@dataclass
class SearchReport:
    rows: list  # (step, train_loss, valid_loss, tau, wall_seconds) per epoch
    histogram: dict  # edge -> {code tuple: count}
    derived: ArchitectureCode
    sampling_events: int


def build_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "parity":
        return make_parity(cfg.dataset_bits, seed=cfg.seed)
    if cfg.dataset == "two_moons":
        return make_two_moons(cfg.dataset_n, noise=cfg.dataset_noise, seed=cfg.seed)
    return make_spirals(cfg.dataset_n, turns=cfg.dataset_turns,
                        noise=cfg.dataset_noise, seed=cfg.seed)


def _steps_per_epoch(n_train: int, batch_size: int) -> int:
    return max(1, (n_train + batch_size - 1) // batch_size)


def build_state(cfg: RunConfig, dataset: Dataset) -> SearchState:
    init_rng = np.random.default_rng(cfg.seed)
    network = make_network(dataset.features.shape[1], dataset.n_classes, cfg, init_rng)
    total = cfg.epochs * _steps_per_epoch(len(dataset.splits["train"]), cfg.batch_size)
    optimizer = MomentumSGD(network.weights())  # before the view shares the data
    return SearchState(
        cfg=cfg, total_steps=total, network=network, tau=cfg.tau_start, step=0,
        rng=RngState(cfg.seed), optimizer=optimizer, frozen=network.constant(),
        code_counts=np.zeros((num_edges(cfg.nodes), 1 << len(OP_SET)), dtype=np.int64),
    )


def _tau_at(cfg: RunConfig, total_steps: int, step: int) -> float:
    if total_steps <= 1:
        return cfg.tau_start
    frac = min(step, total_steps - 1) / (total_steps - 1)
    return cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac


def sample_edges(state: SearchState, relax: bool) -> Codes:
    """One EGS draw for all edges of `state.network` at the current
    temperature.

    Returns the edges' hard codes as `Codes`, one (E, K) tensor, and counts
    them in `state.code_counts`.  With `relax` the sampler records 1 node on
    the logits (`egs_sample_of`), through which the loss reaches them.
    Without it only the hard codes are drawn (`hard_code(draw_scores(...))`,
    the same uniforms and the same bits), as constants, and nothing is
    recorded.
    """
    network = state.network
    p, vjp = network.mix()
    if relax:
        hard = egs_sample_of(network.logits, p, vjp, state.cfg.M, state.tau, state.rng)
    else:
        hard = ad.Tensor(hard_code(draw_scores(p, state.cfg.M, state.rng)))
    rows = hard.data
    codes = (rows @ CODE_PLACE).astype(np.intp)
    state.code_counts[np.arange(len(rows)), codes] += 1
    return Codes(network.n, hard)


def compute_loss(state: SearchState, batch, reach: str = "all"):
    """Sample codes, run the network, return the batch cross-entropy.

    `reach` names the parameters the loss's gradient must reach: "weights"
    runs the network with hard codes only (the logits are not read on the
    tape, and only the sampled ops run), "logits" runs `state.frozen`,
    whose weights are constants, and "all" runs the network with the
    relaxed codes.  No gradient is computed for a constant.
    """
    reaches = ("all", "weights", "logits")
    if reach not in reaches:
        raise ValueError(f"reach must be one of {reaches}, got {reach!r}")
    network = state.frozen if reach == "logits" else state.network
    x, y = batch
    samples = sample_edges(state, relax=reach != "weights")
    logits = network_forward(network, x, samples)
    loss = ad.cross_entropy_with_logits(logits, y)
    return loss, samples


def _check_finite(value, samples, which, state=None):
    """Raise SearchDiverged if the array `value` has an entry that is not
    finite, naming each edge's code and, in the search, the step and the
    temperature."""
    if np.isfinite(value).all():
        return
    codes = {e: tuple(int(b) for b in s.data) for e, s in samples.items()}
    at = "," if state is None else f" at step {state.step}, tau={state.tau:.4f}, sampled"
    raise SearchDiverged(f"non-finite {which}{at} codes {codes}")


def search_step(state: SearchState, train_batch, valid_batch) -> tuple:
    """One alternating update: w on the train batch, logits on validation.
    Returns the two substeps' losses.  Raises SearchDiverged on a loss that
    is not finite, and on a logit gradient that is not: the forward skips
    a zero code entry's term, so an op's overflow there reaches only the
    code's gradient."""
    cfg = state.cfg
    state.tau = _tau_at(cfg, state.total_steps, state.step)

    with ad.Tape():
        train_loss, samples = compute_loss(state, train_batch, reach="weights")
        _check_finite(train_loss.data, samples, "training loss", state)
        grads = ad.backward(train_loss)
    state.optimizer.step(grads, cfg.lr_w, cfg.momentum)
    del grads  # before the logit substep's forward

    with ad.Tape():
        valid_loss, samples = compute_loss(state, valid_batch, reach="logits")
        _check_finite(valid_loss.data, samples, "validation loss", state)
        grads = ad.backward(valid_loss)
    logits = state.network.logits
    g = grads.get(logits)
    if g is not None:
        _check_finite(g, samples, "logit gradient", state)
        logits.data -= cfg.lr_alpha * g

    state.step += 1
    return float(train_loss.data), float(valid_loss.data)


def _batch_stream(idx, batch_size, rng):
    while True:
        order = rng.permutation(idx)
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            if len(chunk):
                yield chunk


def run_search(cfg: RunConfig, dataset: Dataset = None):
    """Full search: returns (SearchState, SearchReport)."""
    cfg.validate()
    dataset = dataset if dataset is not None else build_dataset(cfg)
    state = build_state(cfg, dataset)
    # the derivation's block size is known now: refuse it before the search
    _check_derive_draws(cfg.derive_draws, cfg.M)
    train_idx = dataset.splits["train"]
    valid_idx = dataset.splits["valid"]
    spe = _steps_per_epoch(len(train_idx), cfg.batch_size)
    batch_rng = np.random.default_rng(np.random.PCG64(cfg.seed).jumped(1))
    valid_stream = _batch_stream(valid_idx, cfg.batch_size,
                                 np.random.default_rng(np.random.PCG64(cfg.seed).jumped(2)))
    X, y = dataset.features, dataset.labels

    rows = []
    t0 = time.perf_counter()
    train_order = _batch_stream(train_idx, cfg.batch_size, batch_rng)
    for epoch in range(cfg.epochs):
        tl, vl = [], []
        for _ in range(spe):
            bi = next(train_order)
            vi = next(valid_stream)
            train_loss, valid_loss = search_step(state, (X[bi], y[bi]), (X[vi], y[vi]))
            tl.append(train_loss)
            vl.append(valid_loss)
        rows.append(
            (
                state.step,
                float(np.mean(tl)),
                float(np.mean(vl)),
                state.tau,
                time.perf_counter() - t0,
            )
        )
    derived = derive_architecture(state, cfg.derive_mode, draws=cfg.derive_draws)
    report = SearchReport(
        rows=rows, histogram=state.histogram, derived=derived,
        sampling_events=int(state.code_counts.sum()),
    )
    return state, report


# ---------------------------------------------------------------------------
# derivation

# mode-sample draws each edge's codes from one block of draws*M*K uniforms;
# past this many (80 MB of float64) it is refused rather than allocated
DERIVE_UNIFORMS_BUDGET = 10_000_000


def _check_derive_draws(draws, m):
    """Refuse fewer than one draw, and a block past DERIVE_UNIFORMS_BUDGET."""
    if draws < 1:
        raise ValueError(f"derive_draws={draws}: at least one draw is needed")
    uniforms = draws * m * len(OP_SET)
    if uniforms > DERIVE_UNIFORMS_BUDGET:
        raise ValueError(
            f"derive_draws={draws} needs {uniforms} uniforms per edge "
            f"(derive_draws*M*K), past the budget of {DERIVE_UNIFORMS_BUDGET}")


def derive_architecture(state: SearchState, mode="mode-sample", draws=1000) -> ArchitectureCode:
    """Collapse the learned distributions into one binary code per edge.

    Raises ValueError, in either mode, for `draws` below 1 or past the
    uniforms budget, and for sampling probabilities off the simplex, as a
    non-finite logit makes them."""
    _check_derive_draws(draws, state.cfg.M)
    if mode not in ("mode-sample", "max-marginal"):
        raise ValueError(f"unknown derive mode {mode!r}")
    k, m = len(OP_SET), state.cfg.M
    keep = min(m, k)
    bits = np.zeros((num_edges(state.network.n), k), dtype=np.uint8)
    rng = state.rng.clone()  # derivation must not disturb the search stream
    for row, p in enumerate(check_simplex(state.network.mix()[0])):
        if mode == "mode-sample":
            codes = kernels.egs_hard_batch(p, rng.uniform(draws * m * k), m)
            # counted by their integers; ties break toward the larger
            # integer, which prefers lower op indices
            counts = np.bincount(codes @ CODE_PLACE, minlength=1 << k)
            best = np.flatnonzero(counts == counts.max())[-1]
            bits[row] = code_bits(best)
        else:
            chosen = marginal_inclusion_oracle(p, m) >= 0.5
            if not np.any(chosen):
                chosen[int(np.argmax(p))] = True
            if chosen.sum() > keep:  # stay inside the reachable code set
                top = np.zeros(k, dtype=bool)
                top[np.argsort(-p, kind="stable")[:keep]] = True
                chosen &= top
            bits[row] = chosen.astype(np.uint8)
    return ArchitectureCode(n=state.network.n, K=k, bits=bits)


# ---------------------------------------------------------------------------
# retraining fixed architectures


@dataclass
class RetrainResult:
    code: ArchitectureCode
    train_acc: float
    valid_acc: float
    test_acc: float
    final_loss: float


def _constant_samples(code: ArchitectureCode) -> Codes:
    return Codes(code.n, code.bits)


def _accuracy(network, samples, x, y) -> float:
    logits = network_forward(network, x, samples)
    return float((np.argmax(logits.data, axis=1) == y).mean())


def retrain(code: ArchitectureCode, dataset: Dataset, cfg: RunConfig,
            epochs=None, seed_offset=1) -> RetrainResult:
    """Train fresh weights for a fixed code; report split accuracies."""
    if code.K != len(OP_SET) or code.n != cfg.nodes:
        raise ValueError(
            f"code dims (n={code.n}, K={code.K}) do not match config "
            f"(n={cfg.nodes}, K={len(OP_SET)})"
        )
    epochs = epochs if epochs is not None else cfg.retrain_epochs
    init_rng = np.random.default_rng(cfg.seed + seed_offset)
    network = make_network(dataset.features.shape[1], dataset.n_classes, cfg, init_rng)
    samples = _constant_samples(code)
    loss_value = _fit(network, code, samples, dataset, cfg, epochs, seed_offset)
    accs = {}
    constant = network.constant()
    for name in ("train", "valid", "test"):
        xs, ys = dataset.split(name)
        accs[name] = _accuracy(constant, samples, xs, ys)
    return RetrainResult(
        code=code, train_acc=accs["train"], valid_acc=accs["valid"],
        test_acc=accs["test"], final_loss=loss_value,
    )


def _fit(network, code, samples, dataset, cfg, epochs, seed_offset) -> float:
    """`retrain`'s training steps; returns the last loss.  Each step's sweep
    frees its graph as it goes, and its gradient map is dropped after its
    update, before the next step's forward.  The last loss and the
    optimizer's buffers are freed on return, before the accuracy passes
    allocate a retrain's largest arrays."""
    train_idx = dataset.splits["train"]
    X, y = dataset.features, dataset.labels
    stream = _batch_stream(
        train_idx, cfg.batch_size,
        np.random.default_rng(np.random.PCG64(cfg.seed + seed_offset).jumped(3)),
    )
    spe = _steps_per_epoch(len(train_idx), cfg.batch_size)
    # only the weights of the ops the code sets: the others never run
    used = [t for r, e in enumerate(edge_list(code.n))
            for k in np.flatnonzero(code.bits[r]) for t in network.params[e][k].values()]
    optimizer = MomentumSGD([network.w_in, network.b_in, *used,
                             network.w_out, network.b_out])
    loss_value = np.nan
    for _ in range(epochs * spe):
        bi = next(stream)
        with ad.Tape():
            logits = network_forward(network, X[bi], samples)
            loss = ad.cross_entropy_with_logits(logits, y[bi])
            _check_finite(loss.data, samples, "retrain loss")
            grads = ad.backward(loss)
        optimizer.step(grads, cfg.lr_w, cfg.momentum)
        del grads  # before the next step's forward
        loss_value = float(loss.data)
    return loss_value


@dataclass
class BaselineResult:
    best: RetrainResult
    results: list  # RetrainResult per sampled code


def random_search_baseline(dataset: Dataset, cfg: RunConfig, budget=None) -> BaselineResult:
    """Best-of-budget uniformly sampled codes, each retrained briefly.

    The winner is picked by validation accuracy; test accuracy is reported
    for the winner only, keeping the comparison with the searched code fair.
    The independent retrains run on every usable CPU (`fanout._map_trials`).
    """
    budget = budget if budget is not None else cfg.baseline_budget
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(np.random.PCG64(cfg.seed).jumped(4))
    e, k = num_edges(cfg.nodes), len(OP_SET)
    codes = []
    for _ in range(budget):
        bits = rng.integers(0, 2, size=(e, k), dtype=np.uint8)
        if not cfg.allow_empty_edges:
            for row in range(e):
                while not bits[row].any():
                    bits[row] = rng.integers(0, 2, size=k, dtype=np.uint8)
        codes.append(ArchitectureCode(n=cfg.nodes, K=k, bits=bits))
    results = fanout._map_trials(
        lambda t: retrain(codes[t], dataset, cfg, epochs=cfg.baseline_retrain_epochs,
                          seed_offset=100 + t),
        budget)
    best = max(results, key=lambda r: r.valid_acc)
    return BaselineResult(best=best, results=results)


# ---------------------------------------------------------------------------
# reporting


def metrics_csv(report: SearchReport, include_wall: bool = True) -> str:
    cols = ["step", "train_loss", "valid_loss", "tau"]
    if include_wall:
        cols.append("wall_seconds")
    lines = [",".join(cols)]
    for step, tl, vl, tau, wall in report.rows:
        row = [str(step), repr(tl), repr(vl), repr(tau)]
        if include_wall:
            row.append(repr(wall))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
