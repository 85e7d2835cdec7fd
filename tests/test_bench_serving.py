"""The committed ``BENCH_serving.json`` passes its own bench's rule.

``benchmarks/bench_serving.py`` exits nonzero unless :func:`accepted`
holds for the record it writes; the sentinel only compares a fresh
record with the committed one. This holds the committed record to the
bench's own thresholds, and shows that each of them can reject.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.bench_serving import (
    GUARDED_HIT_GATE,
    NAIVE_HIT_CEILING,
    accepted,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO_ROOT / "BENCH_serving.json").read_text())


def test_committed_record_is_accepted(committed):
    assert committed["smoke"] is False
    assert accepted(committed)


@pytest.mark.parametrize("path, value", [
    (("guarded", "deadline_hit_rate"), GUARDED_HIT_GATE - 1e-9),
    (("naive", "deadline_hit_rate"), NAIVE_HIT_CEILING),
    (("chaos", "count_failed"), 1),
    (("chaos_breaker_opened",), False),
    (("chaos_breaker_recovered",), False),
    (("deterministic_replay",), False),
    (("full_tier_bit_identical",), False),
], ids=[
    "guarded-hit-rate", "naive-hit-rate", "chaos-failed", "breaker-opened",
    "breaker-recovered", "deterministic-replay", "bit-identical",
])
def test_each_threshold_can_reject(committed, path, value):
    doctored = copy.deepcopy(committed)
    node = doctored
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert not accepted(doctored)
