"""The marginal audit's calibrated bound and its power, and the module
attributes perfbench's tracer patches."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from egsearch import audit, kernels
from egsearch import trainer as tr
from egsearch.config import RunConfig
from egsearch.space import num_edges

ROOT = Path(__file__).resolve().parents[1]
# the wrong samplers' p: the first op's probability times 1 + TILT, renormalised
TILT = 0.03


def test_sidak_bound():
    assert audit.sidak_z_bound(104) == pytest.approx(4.4255, abs=1e-4)
    # one comparison: the two-sided normal quantile of the rate itself
    assert audit.sidak_z_bound(1) == pytest.approx(3.290527, abs=1e-6)
    assert audit.sidak_z_bound(160) > audit.sidak_z_bound(104) > audit.sidak_z_bound(40)


def test_bit_z():
    n = 100_000
    # in the bulk it is the score statistic |f - q| / sd to within 1 %
    q = np.array([0.3, 0.5, 0.8])
    f = q + 3.0 * np.sqrt(q * (1.0 - q) / n) * np.array([1.0, -1.0, 1.0])
    assert np.allclose(audit.bit_z(f, q, n), 3.0, rtol=0.01)
    # 3 zeros in 20,000 draws where 0.34 are expected: the score statistic
    # reads 4.6, the binomial tail is 0.005 (z 2.6 two-sided)
    q, f = np.array([1.0 - 1.68e-5]), np.array([1.0 - 3 / 20_000])
    assert np.sqrt(20_000 / (q * (1.0 - q))) * abs(f - q) > 4.5
    assert 2.6 < audit.bit_z(f, q, 20_000)[0] < 3.0
    # marginals of exactly 0 or 1: z 0 when met, infinite when missed
    assert np.array_equal(audit.bit_z(np.array([0.0, 1.0]), np.array([0.0, 1.0]), n), [0.0, 0.0])
    assert np.all(np.isinf(audit.bit_z(np.array([1e-5, 0.99]), np.array([0.0, 1.0]), n)))


def test_marginal_audit_passes_a_correct_sampler_past_three_sigma():
    # seed 2's largest |z| is past the uncorrected 3 sigma; over its 99
    # comparisons the familywise bound is 4.41
    lines, ok, max_z = audit.marginal_audit(seed=2)
    assert ok, lines
    assert 3.0 < max_z < audit.sidak_z_bound(99)
    assert "over 99 bit frequencies" in lines[1] and "bound 4.41" in lines[1]


def one_block_frequencies(configs, draws, seed):
    """Each config's bit frequencies from one block of its stream's
    uniforms: the marginal leg before it drew in chunks."""
    gen = np.random.default_rng(seed)
    out = []
    for i in range(configs):
        k = int(gen.integers(2, 9))
        m = int(gen.integers(1, 6))
        p = gen.random(k)
        p = p / p.sum()
        u = audit.RngState(seed + 1 + i).uniform(draws * m * k)
        out.append(kernels.egs_hard_batch(p, u, m).mean(axis=0))
    return out


def test_marginal_audit_in_chunks_equals_one_block(monkeypatch):
    # 100 uniforms a chunk is 2..50 draws; none of them divides 1009 draws
    seen = []
    real = audit.bit_z
    monkeypatch.setattr(audit, "bit_z", lambda f, q, d: seen.append(f) or real(f, q, d))
    monkeypatch.setattr(audit, "MARGINAL_CHUNK_UNIFORMS", 100)
    audit.marginal_audit(configs=6, draws=1009, seed=4)
    want = one_block_frequencies(6, 1009, 4)
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        assert got.tobytes() == ref.tobytes()


def test_run_audit_refuses_draws_past_the_ceiling_before_any_leg(monkeypatch):
    def leg(*args, **kwargs):
        raise AssertionError("a leg ran")

    for name in ("count_audit", "bijection_audit", "marginal_audit"):
        monkeypatch.setattr(audit, name, leg)
    with pytest.raises(ValueError, match=f"draws must be <= {audit.MAX_DRAWS}"):
        audit.run_audit(draws=audit.MAX_DRAWS + 1)
    # perfbench/README.md reports the audit at 400k draws
    assert audit.MAX_DRAWS >= 400_000


def fails_with(monkeypatch, sampler):
    monkeypatch.setattr(kernels, "egs_hard_batch", sampler)
    lines, ok, max_z = audit.marginal_audit()
    return not ok and max_z > audit.sidak_z_bound(160)


def test_marginal_audit_fails_a_sampler_with_one_component_too_few(monkeypatch):
    real = kernels.egs_hard_batch

    def short(p, u, m):
        fewer = max(m - 1, 1)
        return real(p, u[: u.size // m * fewer], fewer)

    assert fails_with(monkeypatch, short)


def test_marginal_audit_fails_a_sampler_with_tilted_p(monkeypatch):
    real = kernels.egs_hard_batch

    def tilted(p, u, m):
        q = p.copy()
        q[0] *= 1.0 + TILT
        return real(q / q.sum(), u, m)

    assert fails_with(monkeypatch, tilted)


def test_audit_fails_a_non_monotone_oracle(monkeypatch):
    real = audit.marginal_inclusion_oracle
    monkeypatch.setattr(audit, "marginal_inclusion_oracle",
                        lambda p, m: 1.0 - real(p, m))
    result = audit.run_audit(k_max=3, m_max=2, configs=2, draws=1000)
    assert "oracle strictly increasing in p for M in 1..5: NO" in result.report
    assert not result.marginal_ok and not result.ok


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_hooks_into_the_package():
    # the tracer times the audit's and the derivation's draws by wrapping
    # kernels.egs_hard_batch; install() fails on any attribute that is gone
    tracer = load_tracer().Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert patched
        for owner, name, original in patched:
            assert getattr(owner, name) is not original, name
        audit.marginal_audit(configs=2, draws=1000, seed=0)
        assert tracer.n["draws"] == 2 * 1000
        assert tracer.t["marginal"] > 0.0
        cfg = RunConfig(dataset="spirals", dataset_n=200, dim=4, seed=0)
        state = tr.build_state(cfg, tr.build_dataset(cfg))
        tr.derive_architecture(state, draws=100)
        assert tracer.n["draws"] == 2 * 1000 + 100 * num_edges(cfg.nodes)
        # a substep records its sampler nodes, its forward nodes and one
        # cross-entropy node; the tracer counts the nodes the loss reaches,
        # so equality says the sweep covers every node a substep records
        tr.run_search(dataclasses.replace(cfg, epochs=1))
        n = tracer.n
        assert n["steps"] > 0
        assert n["backward_nodes"] == n["sampler_nodes"] + n["forward_nodes"] + n["steps"] * 2
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert getattr(owner, name) is original, name
