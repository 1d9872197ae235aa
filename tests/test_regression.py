"""Exports of short default searches, pinned byte for byte.

The fixture holds, for a 5-epoch search at every other default and seeds 0
and 1: the metrics rows without the wall-clock column, the per-edge code
histogram, and both architecture exports.  Any change to the sampler, the
forward pass or the update rule that moves a sampled code or a loss digit
shows here.  Regenerate only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_regression.py > tests/fixtures/pinned_search.json
"""

import json
from pathlib import Path

import pytest

from egsearch.config import RunConfig
from egsearch.space import export_architecture, export_dot
from egsearch.trainer import metrics_csv, run_search

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_search.json"
SEEDS = (0, 1)


def pinned_outputs(seed: int) -> dict:
    _, report = run_search(RunConfig(epochs=5, seed=seed))
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
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_default_search_reproduces_pinned_outputs(seed):
    want = json.loads(FIXTURE.read_text())[str(seed)]
    got = pinned_outputs(seed)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    print(json.dumps({str(s): pinned_outputs(s) for s in SEEDS}, indent=1))
