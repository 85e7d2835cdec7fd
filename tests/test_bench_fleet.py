"""The committed ``BENCH_fleet.json`` passes its own bench's rule.

``benchmarks/bench_fleet.py`` exits nonzero unless :func:`accepted`
holds for the record it writes; the sentinel only compares a fresh
record with the committed one. This holds the committed record to the
bench's own thresholds, and shows that each of them can reject.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.bench_fleet import RECORDED_GATES, accepted

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO_ROOT / "BENCH_fleet.json").read_text())


def test_committed_record_is_accepted(committed):
    assert committed["smoke"] is False
    assert accepted(committed)


#: (path, doctored value as a function of the committed record)
FLIPS = {
    "affinity-p99": (
        ("affinity", "latency_p99_s"),
        lambda rec: rec["random"]["latency_p99_s"],
    ),
    "affinity-cache": (
        ("affinity", "cache_hit_rate"),
        lambda rec: rec["random"]["cache_hit_rate"],
    ),
    "no-kill": (("chaos", "count_shard_kills"), lambda rec: 0),
    "two-kills": (("chaos", "count_shard_kills"), lambda rec: 2),
    "lost": (("chaos", "lost_requests"), lambda rec: 1),
    "exactly-once": (("chaos", "exactly_once"), lambda rec: False),
    "evicted": (("chaos", "count_evicted"), lambda rec: 1),
    "served-admitted": (
        ("chaos", "count_served"),
        lambda rec: rec["chaos"]["count_admitted"] - 1,
    ),
    "no-redeal": (("chaos", "count_redeals"), lambda rec: 0),
    **{
        gate.replace("_", "-"): ((gate,), lambda rec: False)
        for gate in RECORDED_GATES
    },
}


@pytest.mark.parametrize("flip", list(FLIPS))
def test_each_threshold_can_reject(committed, flip):
    path, value = FLIPS[flip]
    doctored = copy.deepcopy(committed)
    node = doctored
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(committed)
    assert not accepted(doctored)
