"""The committed ``BENCH_chaos.json`` passes its own bench's rule.

``benchmarks/bench_chaos.py`` exits nonzero unless :func:`accepted`
holds for the record it writes; the sentinel only compares a fresh
record with the committed one. This holds the committed record to the
bench's own thresholds, and shows that each of them can reject.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.bench_chaos import (
    RECORDED_GATES,
    SHRINK_RATIO_BOUND,
    accepted,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO_ROOT / "BENCH_chaos.json").read_text())


def test_committed_record_is_accepted(committed):
    assert committed["smoke"] is False
    assert accepted(committed)


#: (path, doctored value)
FLIPS = {
    "search-violation": (("search", "violations"), 1),
    "mutation-missed": (("mutation", "failures"), 0),
    "shrink-ratio": (("mutation", "ratio"), SHRINK_RATIO_BOUND + 1e-9),
    "empty-corpus": (("corpus", "cases"), 0),
    "corpus-regressed": (("corpus", "regressed"), 1),
    **{gate.replace("_", "-"): ((gate,), False) for gate in RECORDED_GATES},
}


@pytest.mark.parametrize("flip", list(FLIPS))
def test_each_threshold_can_reject(committed, flip):
    path, value = FLIPS[flip]
    doctored = copy.deepcopy(committed)
    node = doctored
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert not accepted(doctored)
