"""The committed ``BENCH_tune.json`` passes its own bench's rule.

``benchmarks/bench_tune.py`` exits nonzero unless :func:`accepted`
holds for the record it writes; the sentinel only compares a fresh
record with the committed one. This holds the committed record to the
bench's own thresholds, and shows that each of them can reject.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.bench_tune import (
    IMPROVED_KERNELS_FLOOR,
    IMPROVEMENT_FLOOR,
    ORACLE_SAVINGS_FLOOR,
    accepted,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO_ROOT / "BENCH_tune.json").read_text())


def test_committed_record_is_accepted(committed):
    assert committed["smoke"] is False
    assert accepted(committed)


def too_few_improved(rec):
    """Push kernels under the improvement floor until one too few clear it."""
    over = len(rec["kernels"]) - IMPROVED_KERNELS_FLOOR + 1
    for k in rec["kernels"][:over]:
        k["improvement"] = IMPROVEMENT_FLOOR - 1e-9


def tuned_above_grid(rec):
    k = rec["kernels"][-1]
    k["tuned_cycles"] = k["grid_best_cycles"] + 1


def savings_below_floor(rec):
    rec["kernels"][0]["oracle_savings"] = ORACLE_SAVINGS_FLOOR - 1e-9


def nondeterministic(rec):
    rec["deterministic_all"] = False


@pytest.mark.parametrize("doctor", [
    too_few_improved, tuned_above_grid, savings_below_floor,
    nondeterministic,
])
def test_each_threshold_can_reject(committed, doctor):
    doctored = copy.deepcopy(committed)
    doctor(doctored)
    assert not accepted(doctored)


def test_one_kernel_under_the_improvement_floor_is_allowed(committed):
    """Three of the four kernels clearing the floor is enough."""
    doctored = copy.deepcopy(committed)
    doctored["kernels"][0]["improvement"] = IMPROVEMENT_FLOOR - 1e-9
    assert accepted(doctored)
