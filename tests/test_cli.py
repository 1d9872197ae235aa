"""End-to-end command behavior: files written, precedence, exit codes.

Commands run in-process through main(argv) so the tests stay fast; the
console script binds to the same entry point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from egsearch import audit, trainer
from egsearch.cli import OUT_ENV, main
from egsearch.data import make_parity
from egsearch.space import OP_SET, parse_architecture
from datafile import load_dataset

FAST = ["--dataset-n", "200", "--epochs", "2", "--dim", "4"]


@pytest.fixture(autouse=True)
def isolated_out(monkeypatch, tmp_path):
    monkeypatch.delenv(OUT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_search_writes_all_outputs(tmp_path):
    out = tmp_path / "run"
    assert run("search", *FAST, "--output-dir", out) == 0
    for name in ("metrics.csv", "architecture.json", "architecture.dot",
                 "summary.txt"):
        assert (out / name).exists(), name
    code = parse_architecture((out / "architecture.json").read_text())
    assert code.n == 4
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,train_loss,valid_loss,tau,wall_seconds"
    summary = (out / "summary.txt").read_text()
    assert "derived_bits=" in summary
    assert "edge (0, 1):" in summary
    python = "{}.{}.{}".format(*sys.version_info[:3])
    assert f"\npython={python}\nnumpy={np.__version__}\n" in summary


def test_exported_code_evaluates(tmp_path):
    out = tmp_path / "run"
    assert run("search", *FAST, "--output-dir", out) == 0
    rc = run("evaluate", out / "architecture.json", *FAST,
             "--retrain-epochs", 2, "--output-dir", out)
    assert rc == 0
    report = (out / "evaluation.txt").read_text()
    for field in ("train_acc=", "valid_acc=", "test_acc=", "final_loss="):
        assert field in report


def test_repeated_runs_are_byte_identical(monkeypatch, tmp_path):
    # the env override keeps the echoed config identical across both runs
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv(OUT_ENV, str(a))
    assert run("search", *FAST) == 0
    monkeypatch.setenv(OUT_ENV, str(b))
    assert run("search", *FAST) == 0
    for name in ("architecture.json", "architecture.dot", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def strip_wall(path):
        rows = [line.split(",")[:4] for line in path.read_text().splitlines()]
        return rows

    assert strip_wall(a / "metrics.csv") == strip_wall(b / "metrics.csv")


def test_flags_override_file_which_overrides_defaults(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs=3\nseed=5\ndataset_n=200\ndim=4\n")
    out = tmp_path / "run"
    rc = run("search", "--config", cfg_file, "--epochs", 2,
             "--output-dir", out)
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "epochs=2" in summary      # flag beats file
    assert "seed=5" in summary        # file beats default
    assert "batch_size=64" in summary  # untouched default


def test_output_dir_env_var_wins(monkeypatch, tmp_path):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv(OUT_ENV, str(env_dir))
    assert run("search", *FAST, "--output-dir", tmp_path / "flag_out") == 0
    assert (env_dir / "architecture.json").exists()
    assert not (tmp_path / "flag_out").exists()


def test_invalid_config_fails_before_any_compute(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("search", "--epochs", 0, "--output-dir", out) == 2
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "abc"], "config key epochs: expected int, got 'abc'"),
    (["--allow-empty-edges", "maybe"], "config key allow_empty_edges: expected bool"),
    (["--tau-start", "inf", "--tau-end", "1"], "non-finite config field(s): tau_start"),
    (["--dataset-noise", "inf"], "non-finite config field(s): dataset_noise"),
    (["--lr-alpha", "inf"], "non-finite config field(s): lr_alpha"),
    (["--lam", "nan"], "non-finite config field(s): lam"),
    (["--seed", "-1"], "invalid config field(s): seed"),
    (["--dataset", "mnist"], "invalid config field(s): dataset"),
])
def test_a_bad_flag_exits_2_and_names_its_key(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert run("search", *flags, "--output-dir", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_derive_draws_past_the_budget_exit_2_before_the_first_step(
        tmp_path, monkeypatch, capsys):
    def no_step(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(trainer, "search_step", no_step)
    out = tmp_path / "run"
    assert run("search", *FAST, "--epochs", 1, "--derive-draws", 100_000_000_000,
               "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert "derive_draws=100000000000" in err and "budget" in err


def test_derive_draws_within_the_budget_run(tmp_path):
    out = tmp_path / "run"
    assert run("search", *FAST, "--epochs", 1, "--derive-draws", 100_000,
               "--output-dir", out) == 0
    assert (out / "architecture.json").exists()


def test_bool_flags_take_the_config_file_spellings(tmp_path):
    out = tmp_path / "run"
    assert run("search", *FAST, "--allow-empty-edges", "off", "--output-dir", out) == 0
    assert "\nallow_empty_edges=False\n" in (out / "summary.txt").read_text()


def test_a_bad_config_file_value_exits_2_and_names_its_line(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed=1\nepochs=abc\n")
    assert run("search", "--config", cfg_file) == 2
    assert f"{cfg_file}:2: config key epochs: expected int" in capsys.readouterr().err


def test_a_non_utf8_config_file_exits_2_and_names_itself(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed=1\nepochs=\x9a\n")
    assert run("search", "--config", cfg_file) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg_file}: 'utf-8' codec can't decode byte 0x9a" in err


@pytest.mark.parametrize("content, message", [
    (b'{"n": 4, "K": 5, "edges": \x9a}', "'utf-8' codec can't decode byte 0x9a"),
    (b'{"n": 4, "K": 5, "edges": ', "Expecting value: line 1 column 27 (char 26)"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
], ids=["non-utf8", "truncated-json", "too-deep-json"])
def test_an_unreadable_code_file_exits_2_and_names_itself(tmp_path, capsys, content,
                                                           message):
    code_file = tmp_path / "architecture.json"
    code_file.write_bytes(content)
    assert run("evaluate", code_file, *FAST, "--retrain-epochs", 1) == 2
    assert f"error: {code_file}: {message}" in capsys.readouterr().err


def test_evaluate_rejects_mismatched_dimensions(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("search", *FAST, "--output-dir", out) == 0
    rc = run("evaluate", out / "architecture.json", *FAST,
             "--nodes", 3, "--output-dir", out)
    assert rc == 2
    assert "do not match" in capsys.readouterr().err


def test_evaluate_rejects_missing_code_file(tmp_path, capsys):
    rc = run("evaluate", tmp_path / "nope.json", *FAST)
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("n"), "missing key 'n'"),
    (lambda doc: doc["edges"].append({"from": 5, "to": 9, "bits": [0] * 5}),
     "edge (5, 9) is outside the 4-node cell"),
    (lambda doc: doc["edges"][0].update(bits=[1, 1]), "edge (0, 1) has 2 bits, K is 5"),
    (lambda doc: doc["edges"][0].update(bits=[0.5, 1.9, 0, 0, 0]),
     "edge (0, 1) has bits [0.5, 1.9, 0, 0, 0], not each 0 or 1"),
    (lambda doc: doc.update(n=100_000_000, edges=[]),
     "edges lists 0 edges, the 100000000-node cell has 4999999950000000"),
    (lambda doc: doc.update(K=100_000_000_000), "K is 100000000000, the op set has 5 ops"),
    (lambda doc: doc.update(K=-1), "K is -1, the op set has 5 ops"),
    (lambda doc: doc.update(edges={}), "edges lists 0 edges, the 4-node cell has 6"),
    (lambda doc: doc.update(edges=[]), "edges lists 0 edges, the 4-node cell has 6"),
    (lambda doc: doc["ops"].reverse(),
     "ops are ['linear_sigmoid', 'linear_tanh', 'linear_relu', 'identity', 'zero'], "
     "the op set is ['zero', 'identity', 'linear_relu', 'linear_tanh', 'linear_sigmoid']"),
])
def test_evaluate_rejects_a_malformed_code_file(tmp_path, capsys, edit, message):
    code_file = tmp_path / "architecture.json"
    doc = {"n": 4, "K": 5, "ops": [op.name for op in OP_SET],
           "edges": [{"from": i, "to": j, "bits": [0, 1, 0, 0, 0]}
                     for i in range(4) for j in range(i + 1, 4)]}
    edit(doc)
    code_file.write_text(json.dumps(doc))
    assert run("evaluate", code_file, *FAST, "--retrain-epochs", 1) == 2
    assert message in capsys.readouterr().err


def test_baseline_report_schema_matches_evaluate(tmp_path):
    out = tmp_path / "run"
    rc = run("baseline", *FAST, "--baseline-budget", 2,
             "--baseline-retrain-epochs", 1, "--output-dir", out)
    assert rc == 0
    report = (out / "baseline.txt").read_text()
    assert "budget=2" in report
    assert report.count("trial=") == 2
    assert "best (by valid_acc)" in report
    # per-result schema identical to the evaluation report
    for field in ("train_acc=", "valid_acc=", "test_acc=", "final_loss="):
        assert report.count(field) == 3  # two trials plus the best block


def test_verify_propositions_report_and_exit(tmp_path, capsys):
    out = tmp_path / "audit"
    rc = run("verify-propositions", "--k-max", 4, "--draws", 20000,
             "--out", out)
    assert rc == 0
    text = (out / "audit.txt").read_text()
    assert "K=2  M=2: enumerated 3      formula 3      AGREE" in text
    assert "K=3  M=2: enumerated 6      formula 9      DISAGREE-REPORTED" in text
    assert "summary: PASS" in text
    capsys.readouterr()


def test_verify_propositions_fails_on_a_wrong_reachable_count(
        tmp_path, monkeypatch, capsys):
    reachable_codes = audit.reachable_codes

    def one_short(K, M):
        codes = reachable_codes(K, M)
        if (K, M) == (3, 2):
            codes.discard(max(codes))
        return codes

    monkeypatch.setattr(audit, "reachable_codes", one_short)
    out = tmp_path / "audit"
    rc = run("verify-propositions", "--k-max", 4, "--draws", 2000, "--out", out)
    assert rc == 1
    text = (out / "audit.txt").read_text()
    assert "K=3  M=2: enumerated 5" in text
    assert "sum_r C(K,r) 6      MISMATCH" in text
    assert "summary: FAIL" in text
    capsys.readouterr()


def test_verify_propositions_rejects_oversized_ranges(capsys):
    assert run("verify-propositions", "--k-max", 40) == 2
    assert "k_max" in capsys.readouterr().err
    # K=12, M=6 has 12^6 compositions, past the enumeration budget
    assert run("verify-propositions", "--k-max", 12, "--m-max", 6) == 2
    err = capsys.readouterr().err
    assert "enumeration range too large" in err
    assert "k_max=12, m_max=6" in err


@pytest.mark.parametrize("flag", ["--draws", "--configs"])
@pytest.mark.parametrize("value", [0, -3])
def test_verify_propositions_rejects_no_evidence(tmp_path, capsys, flag, value):
    out = tmp_path / "audit"
    assert run("verify-propositions", flag, value, "--out", out) == 2
    assert f"{flag[2:]} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_propositions_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "audit"
    assert run("verify-propositions", "--seed", -1, "--out", out) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_propositions_refuses_draws_past_the_ceiling(tmp_path, capsys):
    # a block of 1e11 draws once died with a 20.4 TiB allocation (exit 1)
    out = tmp_path / "audit"
    assert run("verify-propositions", "--draws", 100_000_000_000, "--out", out) == 2
    assert "draws must be <= 10000000, got 100000000000" in capsys.readouterr().err
    assert not out.exists()


def test_dump_dataset_round_trips(tmp_path):
    out = tmp_path / "data"
    rc = run("dump-dataset", "--dataset", "parity", "--dataset-bits", 4,
             "--output-dir", out)
    assert rc == 0
    loaded = load_dataset((out / "dataset.txt").read_text())
    built = make_parity(4, seed=0)
    assert np.array_equal(loaded.features, built.features)
    assert np.array_equal(loaded.labels, built.labels)
    for name in ("train", "valid", "test"):
        assert np.array_equal(
            np.sort(loaded.splits[name]), np.sort(built.splits[name])
        )


def test_import_starts_no_process():
    # finding a library through ctypes.util starts ldconfig or gcc by way of
    # subprocess, so a clean import leaves subprocess unloaded
    import egsearch

    src = str(Path(egsearch.__file__).resolve().parent.parent)
    code = "import sys, egsearch.cli; print('subprocess' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"
