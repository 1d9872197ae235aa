"""Exports of short searches, pinned byte for byte.

The fixture holds, for each named 5-epoch search below: the metrics rows
without the wall-clock column, the per-edge code histogram, both
architecture exports, and the sha256 of the final logits' and the final
weights' float64 bytes.
Cases "0" and "1" run every other default at seeds 0 and 1.  The third runs
a 6-node `concat` cell with M 3, lam 0.3 and the max-marginal derivation, so
a change in how lam, l, a 15-row logits array or the marginal rule is read
shows too.  The wide case runs a 2-epoch search at the `search-wide`
benchmark's shape (two_moons, 4000 points, dim 128, batch 256), where the
edges' large matmuls and activations run.  Any change to the sampler, the
forward pass or the update rule that moves a sampled code, a loss digit or
the last bit of a learned logit shows here; the codes and the losses read
the logits only through argmax flips that a last-bit change rarely causes,
so the digests pin them themselves.  The retrain case trains fresh weights
for a fixed code that sets every op somewhere, has an empty edge and a
zero-only one, and pins the final loss's repr, the three split accuracies
and the sha256 of the trained weights.  Regenerate only for an intended
change of behaviour:

    PYTHONPATH=src python tests/test_regression.py > tests/fixtures/pinned_search.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from egsearch import trainer
from egsearch.config import RunConfig
from egsearch.space import ArchitectureCode, export_architecture, export_dot
from egsearch.trainer import build_dataset, metrics_csv, retrain, run_search

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_search.json"
CASES = {
    "0": RunConfig(epochs=5, seed=0),
    "1": RunConfig(epochs=5, seed=1),
    "n6-m3-lam0.3-concat-max-marginal": RunConfig(
        epochs=5, seed=2, nodes=6, M=3, lam=0.3, output_rule="concat",
        derive_mode="max-marginal",
    ),
    "wide-two_moons-dim128-batch256": RunConfig(
        epochs=2, seed=0, dataset="two_moons", dataset_n=4000, dim=128,
        batch_size=256,
    ),
}
RETRAIN = "retrain-fixed-code"
RETRAIN_CFG = RunConfig(seed=3)
RETRAIN_BITS = [[0, 1, 1, 0, 0], [0, 0, 1, 1, 1], [1, 1, 0, 0, 0],
                [0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 1, 1]]
RETRAIN_EPOCHS = 20


def weights_sha256(tensors) -> str:
    return hashlib.sha256(b"".join(t.data.tobytes() for t in tensors)).hexdigest()


def pinned_outputs(cfg: RunConfig) -> dict:
    state, report = run_search(cfg)
    histogram = sorted(
        f"{i}-{j} {''.join(map(str, code))} {count}"
        for (i, j), codes in report.histogram.items()
        for code, count in codes.items()
    )
    return {
        "metrics": metrics_csv(report, include_wall=False),
        "histogram": histogram,
        "architecture_json": export_architecture(report.derived),
        "architecture_dot": export_dot(report.derived),
        "logits_sha256": hashlib.sha256(state.network.logits.data.tobytes()).hexdigest(),
        "weights_sha256": weights_sha256(state.weights()),
    }


def pinned_retrain() -> dict:
    """The retrain case's outputs; the trained network is caught as
    `retrain` builds it."""
    cfg = RETRAIN_CFG
    code = ArchitectureCode(n=cfg.nodes, K=5, bits=np.array(RETRAIN_BITS))
    made = []
    make = trainer.make_network
    trainer.make_network = lambda *args: made.append(make(*args)) or made[-1]
    try:
        result = retrain(code, build_dataset(cfg), cfg, epochs=RETRAIN_EPOCHS)
    finally:
        trainer.make_network = make
    return {
        "final_loss": repr(result.final_loss),
        "accuracies": [repr(result.train_acc), repr(result.valid_acc), repr(result.test_acc)],
        "weights_sha256": weights_sha256(made[0].weights()),
    }


def check_pinned(want, got):
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("name", CASES)
def test_default_search_reproduces_pinned_outputs(name):
    check_pinned(json.loads(FIXTURE.read_text())[name], pinned_outputs(CASES[name]))


def test_fixed_code_retrain_reproduces_pinned_outputs():
    check_pinned(json.loads(FIXTURE.read_text())[RETRAIN], pinned_retrain())


if __name__ == "__main__":
    pinned = {name: pinned_outputs(cfg) for name, cfg in CASES.items()}
    pinned[RETRAIN] = pinned_retrain()
    print(json.dumps(pinned, indent=1))
