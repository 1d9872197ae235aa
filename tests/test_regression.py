"""Exports of short searches, pinned byte for byte.

The fixture holds, for each named 5-epoch search below: the metrics rows
without the wall-clock column, the per-edge code histogram, both
architecture exports, and the sha256 of the final logits' float64 bytes.
Cases "0" and "1" run every other default at seeds 0 and 1.  The third runs
a 6-node `concat` cell with M 3, lam 0.3 and the max-marginal derivation, so
a change in how lam, l, a 15-row logits array or the marginal rule is read
shows too.  The wide case runs a 2-epoch search at the `search-wide`
benchmark's shape (two_moons, 4000 points, dim 128, batch 256), where the
edges' large matmuls and activations run.  Any change to the sampler, the
forward pass or the update rule that moves a sampled code, a loss digit or
the last bit of a learned logit shows here; the codes and the losses read
the logits only through argmax flips that a last-bit change rarely causes,
so the digest pins them itself.  Regenerate only for an intended change of
behaviour:

    PYTHONPATH=src python tests/test_regression.py > tests/fixtures/pinned_search.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from egsearch.config import RunConfig
from egsearch.space import export_architecture, export_dot
from egsearch.trainer import metrics_csv, run_search

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
        "logits_sha256": hashlib.sha256(state.cell.logits.data.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", CASES)
def test_default_search_reproduces_pinned_outputs(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = pinned_outputs(CASES[name])
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    print(json.dumps({name: pinned_outputs(cfg) for name, cfg in CASES.items()}, indent=1))
