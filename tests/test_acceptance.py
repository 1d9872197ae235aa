"""Acceptance gate: the nine headline properties at their stated tolerances.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion.  Criterion 7 and 8 share one module-scoped sweep of searches
(M in {1, 2, 4} across five seeds) because the searches dominate the
runtime of this file.
"""

import time

import numpy as np
import pytest

from egsearch import autodiff as ad
from egsearch import kernels
from egsearch.audit import marginal_audit, run_audit
from egsearch.cli import OUT_ENV, main
from egsearch.config import RunConfig
from egsearch.gumbel import (
    RngState,
    gumbel_transform,
    marginal_inclusion_oracle,
)
from egsearch.space import (
    OP_SET,
    ArchitectureCode,
    Codes,
    decode,
    encode,
    num_edges,
)
from egsearch.trainer import (
    build_dataset,
    build_state,
    network_forward,
    random_search_baseline,
    retrain,
    run_search,
)
import opchain as oc
from opchain import FD_STEP, assert_grads_close, check_op, egs_sample, mix_op, scalarize

K = len(OP_SET)


def separated(rng, shape):
    # keep FD probes away from elementwise-max ties
    a = rng.normal(size=shape)
    d = rng.normal(size=shape)
    return a, a + np.sign(d) * (np.abs(d) + 0.05)


OP_CASES = [
    ("add", lambda ts: scalarize(oc.add(ts[0], ts[1])),
     lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))]),
    ("multiply", lambda ts: scalarize(oc.multiply(ts[0], ts[1])),
     lambda rng: [rng.normal(size=(2, 5)), rng.normal(size=(2, 5))]),
    ("matmul", lambda ts: scalarize(oc.matmul(ts[0], ts[1])),
     lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
    ("relu", lambda ts: scalarize(oc.relu(ts[0])),
     lambda rng: [np.where(np.abs(x := rng.normal(size=(4, 3))) < 1e-3, 0.1, x)]),
    ("tanh", lambda ts: scalarize(oc.tanh(ts[0])),
     lambda rng: [rng.normal(size=(2, 6))]),
    ("sigmoid", lambda ts: scalarize(oc.sigmoid(ts[0])),
     lambda rng: [rng.normal(size=7) * 3.0]),
    ("softmax", lambda ts: scalarize(oc.softmax(ts[0])),
     lambda rng: [rng.normal(size=(3, 5))]),
    ("log", lambda ts: scalarize(oc.log(ts[0])),
     lambda rng: [rng.uniform(0.2, 3.0, size=6)]),
    ("exp", lambda ts: scalarize(oc.exp(ts[0])),
     lambda rng: [rng.normal(size=(2, 4))]),
    ("elementwise-max", lambda ts: scalarize(oc.maximum(ts[0], ts[1])),
     lambda rng: list(separated(rng, (3, 4)))),
    ("concat", lambda ts: scalarize(oc.concat([ts[0], ts[1]], axis=-1)),
     lambda rng: [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))]),
    ("mean", lambda ts: oc.mean(ts[0]),
     lambda rng: [rng.normal(size=(3, 3))]),
    ("cross-entropy-with-logits",
     lambda ts: ad.cross_entropy_with_logits(ts[0], np.array([0, 2, 1])),
     lambda rng: [rng.normal(size=(3, 3))]),
    ("scalar-scale", lambda ts: scalarize(oc.scale(ts[0], 1.7)),
     lambda rng: [rng.normal(size=(2, 3))]),
    ("pick", lambda ts: oc.multiply(oc.pick(ts[0], 2), oc.pick(ts[0], 2)),
     lambda rng: [rng.normal(size=5)]),
]


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    for name, build, arrays in OP_CASES:
        check_op(build, arrays)

    # straight-through: backward must be exactly the identity
    soft_vals = np.array([0.1, 0.2, 0.3, 0.4])
    hard_vals = np.array([0.0, 0.0, 0.0, 1.0])
    with ad.Tape():
        soft = ad.Tensor(soft_vals, requires_grad=True)
        st = oc.straight_through(soft, hard_vals)
        loss = oc.mean(oc.multiply(st, ad.Tensor(np.array([4.0, 8.0, 12.0, 16.0]))))
        grads = ad.backward(loss)
    assert np.array_equal(grads[soft], np.array([1.0, 2.0, 3.0, 4.0]))

    # one full search step's loss on the relaxed (soft) forward, every
    # weight and logit coordinate against central differences
    cfg = RunConfig(dataset_n=200, epochs=5)
    ds = build_dataset(cfg)
    state = build_state(cfg, ds)
    x, y = ds.split("train")
    batch = (x[:32], y[:32])
    saved = state.rng.clone()

    def relaxed_loss():
        soft, _ = oc.relaxation(mix_op(state.network), cfg.M, state.tau, saved.clone())
        logits = network_forward(state.network, batch[0], Codes(cfg.nodes, soft))
        return ad.cross_entropy_with_logits(logits, batch[1])

    def loss_value():
        return float(relaxed_loss().data)

    with ad.Tape():
        loss = relaxed_loss()
        grads = ad.backward(loss)
    checked = 0
    for t in state.weights() + [state.network.logits]:
        analytic = grads.get(t)
        assert analytic is not None
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = loss_value()
            flat[i] = orig - FD_STEP
            lo = loss_value()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * FD_STEP)
        assert_grads_close(analytic, numeric.reshape(t.data.shape))
        checked += flat.size
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(f"[criterion 1] PASS: {len(OP_CASES)} ops x 100 instances, "
          f"{checked} search-loss coordinates, {elapsed:.1f}s")


def test_criterion_2_gumbel_softmax_limits():
    p = np.array([0.4, 0.3, 0.2, 0.1])

    # cold limit: near-one-hot soft whenever the noisy scores are distinct
    rng = RngState(0)
    tau = 0.01
    gap_needed = tau * np.log(999.0 * (len(p) - 1))
    conditioned = 0
    with ad.Tape():
        for _ in range(1000):
            noise = gumbel_transform(rng.clone().uniform(len(p)))
            scores = np.sort(np.log(p) + noise)[::-1]
            s = egs_sample(p, 1, tau, rng)
            if scores[0] - scores[1] > gap_needed:
                conditioned += 1
                assert s.soft.data.max() > 0.999
    assert conditioned > 900

    # hot limit: soft collapses to uniform
    with ad.Tape():
        for _ in range(1000):
            s = egs_sample(p, 1, 1e6, rng)
            assert np.all(np.abs(s.soft.data - 0.25) <= 1e-3)

    # the argmax law of the trainer's relaxation must match direct
    # Gumbel-Max sampling (the hard code at M=1)
    draws = 100_000
    soft_rows = egs_sample(np.tile(p, (draws, 1)), 1, 1.0, RngState(100)).soft.data
    gs_freq = np.bincount(np.argmax(soft_rows, axis=1), minlength=len(p)) / draws
    u2 = RngState(200).uniform(draws * len(p))
    gm_freq = kernels.egs_hard_batch(p, u2, 1).sum(axis=0) / draws
    for j in range(len(p)):
        sd = np.sqrt(p[j] * (1 - p[j]) * 2.0 / draws)
        assert abs(gs_freq[j] - gm_freq[j]) <= 3.0 * sd, j
    print(f"[criterion 2] PASS: {conditioned}/1000 conditioned cold draws, "
          f"hot draws within 1e-3, argmax law within 3 sigma at {draws} draws")


def test_criterion_3_ensemble_distribution():
    # p=[0.5, 0.5], M=2, tau=0.05: both bits set half the time, and more
    # often than either single bit
    p = np.array([0.5, 0.5])
    draws = 100_000
    u = RngState(7).uniform(draws * 2 * 2)
    codes = kernels.egs_hard_batch(p, u, 2)
    n_both = int(np.sum((codes[:, 0] == 1) & (codes[:, 1] == 1)))
    n_left = int(np.sum((codes[:, 0] == 1) & (codes[:, 1] == 0)))
    n_right = int(np.sum((codes[:, 0] == 0) & (codes[:, 1] == 1)))
    sd = np.sqrt(draws * 0.5 * 0.5)
    assert abs(n_both - draws * 0.5) <= 3.0 * sd
    assert n_both > n_left
    assert n_both > n_right
    print(f"[criterion 3] PASS: P([1,1])={n_both / draws:.4f} "
          f"vs P([1,0])={n_left / draws:.4f}, P([0,1])={n_right / draws:.4f}")


def test_criterion_4_inclusion_marginals():
    lines, ok, max_z = marginal_audit(configs=20, draws=100_000, seed=0)
    assert ok, lines
    assert max_z <= 3.0
    # exact oracle strictly increasing in each coordinate probability
    grid = np.linspace(0.0, 1.0, 101)
    for m in range(1, 6):
        vals = [1.0 - (1.0 - q) ** m for q in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    # and the closed form is what the sampler module reports
    assert marginal_inclusion_oracle([0.3, 0.7], 2)[0] == pytest.approx(
        1.0 - 0.7**2
    )
    print(f"[criterion 4] PASS: 20 configs at 100000 draws, max |z|={max_z:.2f}")


def test_criterion_5_reachable_count_audit():
    t0 = time.perf_counter()
    res = run_audit(k_max=10, m_max=4, configs=5, draws=20_000, seed=0)
    elapsed = time.perf_counter() - t0
    rows = {(r.K, r.M): r for r in res.counts}
    assert rows[(2, 2)].agree
    for k in range(2, 11):
        assert rows[(k, 1)].agree, k
    flagged = rows[(3, 2)]
    assert (flagged.enumerated, flagged.formula) == (6, 9)
    assert not flagged.agree
    assert "K=3  M=2: enumerated 6      formula 9      DISAGREE-REPORTED" in res.report
    assert res.ok  # the discrepancy is reported, not failed
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    print(f"[criterion 5] PASS: (2,2) and all (K,1) agree, (3,2) reported "
          f"6 vs 9, swept K<=10 M<=4 in {elapsed:.1f}s")


def test_criterion_6_code_bijection():
    e = num_edges(3)
    for packed in range(2 ** (e * 2)):
        bits = np.array(
            [(packed >> i) & 1 for i in range(e * 2)], dtype=np.uint8
        ).reshape(e, 2)
        code = ArchitectureCode(n=3, K=2, bits=bits)
        assert encode(decode(code)) == code
    rng = np.random.default_rng(0)
    for _ in range(1000):
        bits = rng.integers(0, 2, size=(num_edges(7), 5), dtype=np.uint8)
        code = ArchitectureCode(n=7, K=5, bits=bits)
        assert encode(decode(code)) == code
    print("[criterion 6] PASS: 64/64 exhaustive and 1000/1000 random "
          "codes round-trip")


@pytest.fixture(scope="module")
def desk_scale_runs():
    """Searches for M in {1, 2, 4} x 5 seeds; retrain+baseline for M=2."""
    by_m = {}
    wall = {}
    for m in (1, 2, 4):
        runs = []
        for seed in range(5):
            cfg = RunConfig(M=m, seed=seed)
            t0 = time.perf_counter()
            ds = build_dataset(cfg)
            _, report = run_search(cfg, ds)
            wall[(m, seed)] = time.perf_counter() - t0
            runs.append((cfg, ds, report))
        by_m[m] = runs
    pairs = []
    for cfg, ds, report in by_m[2]:
        t0 = time.perf_counter()
        derived = retrain(report.derived, ds, cfg)
        base = random_search_baseline(ds, cfg)
        wall[(2, cfg.seed)] += time.perf_counter() - t0
        pairs.append((derived.test_acc, base.best.test_acc))
    return by_m, pairs, wall


def test_criterion_7_search_beats_random_baseline(desk_scale_runs):
    _, pairs, wall = desk_scale_runs
    derived_mean = float(np.mean([d for d, _ in pairs]))
    baseline_mean = float(np.mean([b for _, b in pairs]))
    assert derived_mean >= baseline_mean, (derived_mean, baseline_mean)
    for seed in range(5):
        assert wall[(2, seed)] < 300.0, (seed, wall[(2, seed)])
    print(f"[criterion 7] PASS: derived mean {derived_mean:.4f} >= "
          f"baseline mean {baseline_mean:.4f} over 5 seeds, "
          f"slowest run {max(wall[(2, s)] for s in range(5)):.0f}s")


def test_criterion_8_bit_count_grows_with_m(desk_scale_runs):
    by_m, _, _ = desk_scale_runs
    means = {
        m: float(np.mean([r.derived.bit_count() for _, _, r in runs]))
        for m, runs in by_m.items()
    }
    assert means[1] <= means[2] <= means[4], means
    print(f"[criterion 8] PASS: mean bit counts "
          f"{means[1]:.2f} <= {means[2]:.2f} <= {means[4]:.2f} "
          f"for M=1, 2, 4")


def test_criterion_9_byte_identical_reruns(monkeypatch, tmp_path):
    argv = ["search", "--dataset-n", "200", "--epochs", "2", "--dim", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv(OUT_ENV, str(a))
    assert main(argv) == 0
    monkeypatch.setenv(OUT_ENV, str(b))
    assert main(argv) == 0
    assert (a / "architecture.json").read_bytes() == (
        b / "architecture.json"
    ).read_bytes()
    assert (a / "architecture.dot").read_bytes() == (
        b / "architecture.dot"
    ).read_bytes()

    def no_wall(path):
        return [
            line.rsplit(",", 1)[0] for line in path.read_text().splitlines()
        ]

    assert no_wall(a / "metrics.csv") == no_wall(b / "metrics.csv")
    print("[criterion 9] PASS: exported architectures byte-identical, "
          "metrics identical outside the wall-clock column")
