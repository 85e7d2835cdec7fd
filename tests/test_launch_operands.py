"""A launch checks its dense operands before the fault preamble.

Each case below once priced (or crashed on) dense operands that do not
fit the operand they multiply when the launch asked for no output; with
output, the reference kernels raised ``ShapeError``. The check now runs
once in ``Tensaurus._launch``, before the fault plan draws, so every
case raises ``ShapeError`` either way and takes no fault-plan run slot.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_sparse_tensor
from repro.formats.coo import COOMatrix
from repro.sim.accelerator import Tensaurus
from repro.sim.faults import FaultPlan
from repro.util.errors import ShapeError

#: Lane dropouts are drawn per run slot: the first two launches of an
#: accelerator under this plan lose different numbers of lanes.
ARMED = FaultPlan(seed=13, pe_lane_dropout_rate=0.3)


@pytest.fixture(scope="module")
def tensor():
    return random_sparse_tensor((30, 20, 10), 200, seed=3)


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(5)
    rows, cols = np.nonzero(rng.random((5, 5)) < 0.5)
    return COOMatrix((5, 5), rows, cols, rng.random(rows.size))


def rand(*shape):
    return np.random.default_rng(7).random(shape)


@pytest.mark.parametrize("compute_output", [False, True])
class TestMalformedLaunches:
    def test_mttkrp_factors_of_the_wrong_height(self, tensor,
                                                compute_output):
        with pytest.raises(ShapeError):
            Tensaurus().run_mttkrp(tensor, rand(7, 4), rand(3, 4),
                                   compute_output=compute_output)

    def test_spmv_vector_of_the_wrong_length(self, matrix, compute_output):
        with pytest.raises(ShapeError):
            Tensaurus().run_spmv(matrix, rand(9),
                                 compute_output=compute_output)

    def test_spmm_b_of_the_wrong_height(self, matrix, compute_output):
        with pytest.raises(ShapeError):
            Tensaurus().run_spmm(matrix, rand(9, 4),
                                 compute_output=compute_output)

    def test_spmm_one_dimensional_b(self, matrix, compute_output):
        with pytest.raises(ShapeError):
            Tensaurus().run_spmm(matrix, rand(5),
                                 compute_output=compute_output)

    @pytest.mark.parametrize("shape", [(4, 0, 3), (4, 3, 0)])
    def test_dense_tensor_with_an_empty_axis(self, shape, compute_output):
        dense = np.zeros(shape)
        with pytest.raises(ShapeError):
            Tensaurus().run_mttkrp(dense, rand(shape[1], 2),
                                   rand(shape[2], 2),
                                   compute_output=compute_output)


@pytest.mark.parametrize("compute_output", [False, True])
def test_malformed_launch_takes_no_run_slot(tensor, compute_output):
    b, c = rand(20, 4), rand(10, 4)
    fresh = Tensaurus(fault_plan=ARMED)
    first = fresh.run_mttkrp(tensor, b, c, compute_output=False)
    second = fresh.run_mttkrp(tensor, b, c, compute_output=False)
    assert first.faults != second.faults
    acc = Tensaurus(fault_plan=ARMED)
    with pytest.raises(ShapeError):
        acc.run_mttkrp(tensor, rand(7, 4), c,
                       compute_output=compute_output)
    after = acc.run_mttkrp(tensor, b, c, compute_output=False)
    assert after.faults == first.faults
    assert after.cycles == first.cycles
