"""Joint optimization of network weights and architecture distributions.

Each search step alternates two substeps: sample per-edge binary codes and
update the op weights on a training batch, then resample and update the
per-edge logits on a validation batch.  Each substep runs a view of the
network in which the parameters it does not update are constants, and ops on
constants record nothing.  In the logit substep the binary codes enter the
forward pass through their straight-through tensors, so one ordinary
backward pass carries the loss's gradient to the logits, and nothing that
only the weights feed is recorded.  In the weight substep the logits are a
constant, so the codes are too and only the sampled ops run.

The temperature anneals linearly from tau_start to tau_end over the run.
After the search, the learned edge distributions are collapsed into one
concrete architecture code, which is retrained from scratch.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import kernels
from .config import RunConfig
from .data import Dataset, make_parity, make_spirals, make_two_moons
from .gumbel import RngState, egs_sample, marginal_inclusion_oracle
from .space import (
    OP_SET,
    ArchitectureCode,
    Cell,
    cell_forward,
    edge_list,
    make_cell,
    num_edges,
)

__all__ = [
    "Network",
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


@dataclass
class Network:
    """Input projection + searched cell + linear classifier head."""

    cell: Cell
    w_in: ad.Tensor
    b_in: ad.Tensor
    w_out: ad.Tensor
    b_out: ad.Tensor

    def weights(self) -> list:
        return [self.w_in, self.b_in, *self.cell.weight_tensors(),
                self.w_out, self.b_out]

    def constant(self) -> "Network":
        """A view with every weight entered as a constant, sharing the data
        and the cell's logits: ops on the weights alone record no node."""

        def const(t):
            return ad.Tensor(t.data)

        params = {e: [{name: const(t) for name, t in op.items()} for op in ops]
                  for e, ops in self.cell.params.items()}
        return Network(
            cell=dataclasses.replace(self.cell, params=params),
            w_in=const(self.w_in), b_in=const(self.b_in),
            w_out=const(self.w_out), b_out=const(self.b_out),
        )


def make_network(in_dim, n_classes, cfg: RunConfig, init_rng) -> Network:
    cell = make_cell(
        n=cfg.nodes, dim=cfg.dim, lam=cfg.lam, init_rng=init_rng,
        output_rule=cfg.output_rule,
    )
    cell_out = cfg.dim if cfg.output_rule == "sum" else cfg.dim * (cfg.nodes - 1)
    return Network(
        cell=cell,
        w_in=ad.Tensor(init_rng.normal(0, 1, (in_dim, cfg.dim)) / np.sqrt(in_dim),
                       requires_grad=True),
        b_in=ad.Tensor(np.zeros(cfg.dim), requires_grad=True),
        w_out=ad.Tensor(init_rng.normal(0, 1, (cell_out, n_classes)) / np.sqrt(cell_out),
                        requires_grad=True),
        b_out=ad.Tensor(np.zeros(n_classes), requires_grad=True),
    )


@dataclass
class SearchState:
    cfg: RunConfig
    total_steps: int
    network: Network
    tau: float
    step: int
    rng: RngState
    velocities: dict = field(default_factory=dict)  # momentum buffers by tensor id
    histogram: dict = field(default_factory=dict)  # edge -> {code tuple: count}

    @property
    def cell(self) -> Cell:
        return self.network.cell

    def weights(self) -> list:
        return self.network.weights()


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
    return SearchState(cfg=cfg, total_steps=total, network=network,
                       tau=cfg.tau_start, step=0, rng=RngState(cfg.seed))


def _tau_at(cfg: RunConfig, total_steps: int, step: int) -> float:
    if total_steps <= 1:
        return cfg.tau_start
    frac = min(step, total_steps - 1) / (total_steps - 1)
    return cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac


def network_forward(network: Network, x: np.ndarray, samples: dict) -> ad.Tensor:
    h = ad.add(ad.matmul(ad.Tensor(x), network.w_in), network.b_in)
    out = cell_forward(network.cell, h, samples)
    return ad.add(ad.matmul(out, network.w_out), network.b_out)


def sample_edges(state: SearchState, cell: Cell) -> dict:
    """One EGS draw for all edges of `cell` at the current temperature.

    Returns each edge's hard code.  When the cell's logits are on the tape
    the sampler records E + 3 nodes, through which the loss reaches them;
    when they are a constant the codes are constants and it records nothing.
    """
    s = egs_sample(cell.probabilities(), state.cfg.M, state.tau, state.rng)
    samples = {}
    codes = s.hard.data.astype(np.int64).tolist()
    for r, e in enumerate(edge_list(cell.n)):
        per_edge = state.histogram.setdefault(e, {})
        code = tuple(codes[r])
        per_edge[code] = per_edge.get(code, 0) + 1
        samples[e] = ad.pick(s.hard, r)
    return samples


def _fixed_logits(network: Network) -> Network:
    cell = dataclasses.replace(network.cell, logits=ad.Tensor(network.cell.logits.data))
    return dataclasses.replace(network, cell=cell)


# the network each reach runs: what it does not name enters as a constant
VIEWS = {"all": lambda network: network, "weights": _fixed_logits,
         "logits": Network.constant}


def compute_loss(state: SearchState, batch, reach: str = "all"):
    """Sample codes, run the network, return the batch cross-entropy.

    `reach` names the parameters the loss's gradient must reach, and picks
    the view of the network the substep runs: "weights" enters the logits
    as a constant (so the codes are constants and only the sampled ops
    run), "logits" enters the weights as constants, and "all" is the
    network itself.  Ops on constants record nothing.
    """
    if reach not in VIEWS:
        raise ValueError(f"reach must be one of {tuple(VIEWS)}, got {reach!r}")
    x, y = batch
    network = VIEWS[reach](state.network)
    samples = sample_edges(state, network.cell)
    logits = network_forward(network, x, samples)
    loss = ad.cross_entropy_with_logits(logits, y)
    return loss, samples


def _check_finite(loss, samples, which, state=None):
    """Raise SearchDiverged if `loss` is not finite, naming each edge's code
    and, in the search, the step and the temperature."""
    if np.isfinite(loss.data):
        return
    codes = {e: tuple(int(b) for b in s.data) for e, s in samples.items()}
    at = "," if state is None else f" at step {state.step}, tau={state.tau:.4f}, sampled"
    raise SearchDiverged(f"non-finite {which} loss{at} codes {codes}")


# resampling the architecture every step occasionally produces huge weight
# gradients; without this bound plain momentum at the default rates diverges
GRAD_CLIP_NORM = 5.0


def _sgd_momentum(tensors, grads, velocities, lr, momentum):
    # ops absent from the sampled graph get no gradient: their velocity only
    # decays, and a tensor with neither is left alone
    total = 0.0
    for t in tensors:
        g = grads.get(t)
        if g is not None:
            total += float((g * g).sum())
    clip = GRAD_CLIP_NORM / np.sqrt(total) if total > GRAD_CLIP_NORM**2 else None
    for t in tensors:
        g = grads.get(t)
        v = velocities.get(id(t))
        if g is None:
            if v is None:
                continue
            v = momentum * v
        else:
            if clip is not None:
                g = g * clip
            v = g if v is None else momentum * v + g
        velocities[id(t)] = v
        t.data = t.data - lr * v


def search_step(state: SearchState, train_batch, valid_batch) -> tuple:
    """One alternating update: w on the train batch, logits on validation.
    Returns the two substeps' losses."""
    cfg = state.cfg
    state.tau = _tau_at(cfg, state.total_steps, state.step)

    with ad.Tape():
        train_loss, samples = compute_loss(state, train_batch, reach="weights")
        _check_finite(train_loss, samples, "training", state)
        grads = ad.backward(train_loss)
    _sgd_momentum(state.weights(), grads, state.velocities, cfg.lr_w, cfg.momentum)

    with ad.Tape():
        valid_loss, samples = compute_loss(state, valid_batch, reach="logits")
        _check_finite(valid_loss, samples, "validation", state)
        grads = ad.backward(valid_loss)
    logits = state.cell.logits
    g = grads.get(logits)
    if g is not None:
        logits.data = logits.data - cfg.lr_alpha * g

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
    uniforms = cfg.derive_draws * cfg.M * len(OP_SET)
    if uniforms > DERIVE_UNIFORMS_BUDGET:
        raise ValueError(
            f"derive_draws={cfg.derive_draws} needs {uniforms} uniforms per edge "
            f"(derive_draws*M*K), past the budget of {DERIVE_UNIFORMS_BUDGET}")
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
    events = sum(sum(c.values()) for c in state.histogram.values())
    report = SearchReport(
        rows=rows, histogram=state.histogram, derived=derived,
        sampling_events=events,
    )
    return state, report


# ---------------------------------------------------------------------------
# derivation

# mode-sample draws each edge's codes from one block of draws*M*K uniforms;
# past this many (80 MB of float64) it is refused rather than allocated
DERIVE_UNIFORMS_BUDGET = 10_000_000


def derive_architecture(state: SearchState, mode="mode-sample", draws=1000) -> ArchitectureCode:
    """Collapse the learned distributions into one binary code per edge."""
    if mode not in ("mode-sample", "max-marginal"):
        raise ValueError(f"unknown derive mode {mode!r}")
    k, m = len(OP_SET), state.cfg.M
    keep = min(m, k)
    bits = np.zeros((num_edges(state.cell.n), k), dtype=np.uint8)
    rng = state.rng.clone()  # derivation must not disturb the search stream
    shift = np.arange(k - 1, -1, -1)
    place = 1 << shift
    for row, p in enumerate(state.cell.probabilities().data):
        if mode == "mode-sample":
            codes = kernels.egs_hard_batch(p, rng.uniform(draws * m * k), m)
            # each code as the integer its bits spell, op 0 the top bit, so
            # integers order as codes do lexicographically; ties break
            # toward the larger code, which prefers lower op indices
            counts = np.bincount(codes @ place, minlength=1 << k)
            best = np.flatnonzero(counts == counts.max())[-1]
            bits[row] = (best >> shift) & 1
        else:
            chosen = marginal_inclusion_oracle(p, m) >= 0.5
            if not np.any(chosen):
                chosen[int(np.argmax(p))] = True
            if chosen.sum() > keep:  # stay inside the reachable code set
                top = np.zeros(k, dtype=bool)
                top[np.argsort(-p, kind="stable")[:keep]] = True
                chosen &= top
            bits[row] = chosen.astype(np.uint8)
    return ArchitectureCode(n=state.cell.n, K=k, bits=bits)


# ---------------------------------------------------------------------------
# retraining fixed architectures


@dataclass
class RetrainResult:
    code: ArchitectureCode
    train_acc: float
    valid_acc: float
    test_acc: float
    final_loss: float


def _constant_samples(code: ArchitectureCode) -> dict:
    return {e: ad.Tensor(code.bits[r].astype(np.float64))
            for r, e in enumerate(edge_list(code.n))}


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
    train_idx = dataset.splits["train"]
    X, y = dataset.features, dataset.labels
    stream = _batch_stream(
        train_idx, cfg.batch_size,
        np.random.default_rng(np.random.PCG64(cfg.seed + seed_offset).jumped(3)),
    )
    spe = _steps_per_epoch(len(train_idx), cfg.batch_size)
    velocities = {}
    loss_value = np.nan
    for _ in range(epochs * spe):
        bi = next(stream)
        with ad.Tape():
            logits = network_forward(network, X[bi], samples)
            loss = ad.cross_entropy_with_logits(logits, y[bi])
            _check_finite(loss, samples, "retrain")
            grads = ad.backward(loss)
        _sgd_momentum(network.weights(), grads, velocities, cfg.lr_w, cfg.momentum)
        loss_value = float(loss.data)
    accs = {}
    constant = network.constant()
    for name in ("train", "valid", "test"):
        xs, ys = dataset.split(name)
        accs[name] = _accuracy(constant, samples, xs, ys)
    return RetrainResult(
        code=code, train_acc=accs["train"], valid_acc=accs["valid"],
        test_acc=accs["test"], final_loss=loss_value,
    )


@dataclass
class BaselineResult:
    best: RetrainResult
    results: list  # RetrainResult per sampled code


def random_search_baseline(dataset: Dataset, cfg: RunConfig, budget=None) -> BaselineResult:
    """Best-of-budget uniformly sampled codes, each retrained briefly.

    The winner is picked by validation accuracy; test accuracy is reported
    for the winner only, keeping the comparison with the searched code fair.
    """
    budget = budget if budget is not None else cfg.baseline_budget
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(np.random.PCG64(cfg.seed).jumped(4))
    e, k = num_edges(cfg.nodes), len(OP_SET)
    results = []
    for trial in range(budget):
        bits = rng.integers(0, 2, size=(e, k), dtype=np.uint8)
        if not cfg.allow_empty_edges:
            for row in range(e):
                while not bits[row].any():
                    bits[row] = rng.integers(0, 2, size=k, dtype=np.uint8)
        code = ArchitectureCode(n=cfg.nodes, K=k, bits=bits)
        results.append(
            retrain(code, dataset, cfg, epochs=cfg.baseline_retrain_epochs,
                    seed_offset=100 + trial)
        )
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
