"""Ablation — CISS's least-loaded slice scheduling vs naive round-robin.

The CISS encoder deals the next slice to the least-loaded lane; a
round-robin dealer ignores slice sizes. On skewed tensors (web-scale slice
distributions) the least-loaded policy yields shorter streams (less tail
padding) and better lane balance, which is the load-balancing claim of
Section 4.
"""

import numpy as np
import pytest

import repro.formats.ciss as ciss_mod
from repro.analysis import format_table
from repro.datasets import random_sparse_tensor
from repro.formats import CISSTensor
from repro.formats.ciss import KIND_NNZ

from benchmarks.conftest import record_result, run_once

LANES = 8


def round_robin_deal(costs, num_lanes):
    """The ablated dealer: slice ``g`` goes to lane ``g % P``, ignoring load.

    Returns each slice's lane and its first slot within that lane, the
    contract of :func:`repro.formats.ciss.least_loaded_deal`.
    """
    lanes = np.arange(costs.shape[0], dtype=np.int64) % num_lanes
    offsets = np.empty_like(lanes)
    for lane in range(num_lanes):
        mine = lanes == lane
        offsets[mine] = np.cumsum(costs[mine]) - costs[mine]
    return lanes, offsets


def encode_with(deal, tensor, lanes):
    """CISS-encode using an alternative dealing policy."""
    original = ciss_mod.least_loaded_deal
    ciss_mod.least_loaded_deal = deal
    try:
        return CISSTensor.from_sparse(tensor, lanes)
    finally:
        ciss_mod.least_loaded_deal = original


@pytest.fixture(scope="module")
def skewed_tensor():
    return random_sparse_tensor((3000, 200, 150), 120_000, skew=1.3, seed=41)


@pytest.fixture(scope="module")
def comparison(skewed_tensor):
    least_loaded = CISSTensor.from_sparse(skewed_tensor, LANES)
    round_robin = encode_with(round_robin_deal, skewed_tensor, LANES)
    return least_loaded, round_robin


def lane_imbalance(ciss):
    counts = np.count_nonzero(ciss.kinds == KIND_NNZ, axis=0)
    return counts.max() / max(counts.mean(), 1)


def render_and_check(comparison):
    least_loaded, round_robin = comparison
    table = format_table(
        ["scheduler", "entries", "padding", "lane max/mean"],
        [
            ["least-loaded (CISS)", least_loaded.num_entries,
             least_loaded.padding_fraction(), lane_imbalance(least_loaded)],
            ["round-robin (ablated)", round_robin.num_entries,
             round_robin.padding_fraction(), lane_imbalance(round_robin)],
        ],
    )
    record_result("ablation_scheduling", table)
    # The stream length is the cycle count of a bandwidth-bound run: the
    # least-loaded policy must not be longer, and must pad less.
    assert least_loaded.num_entries <= round_robin.num_entries
    assert least_loaded.padding_fraction() < round_robin.padding_fraction()
    assert lane_imbalance(least_loaded) <= lane_imbalance(round_robin)
    return table


def test_ablation_scheduling(comparison):
    render_and_check(comparison)


def test_both_decode_identically(comparison, skewed_tensor):
    least_loaded, round_robin = comparison
    assert least_loaded.to_sparse() == skewed_tensor
    assert round_robin.to_sparse() == skewed_tensor


def test_benchmark_ablation_scheduling(benchmark, comparison):
    run_once(benchmark, lambda: render_and_check(comparison))
