"""The kernel table: every registered name resolves at every entry that
takes a kernel name, and every other name is rejected there."""

import numpy as np
import pytest

from repro.baselines import (
    CambriconXBaseline,
    CPUBaseline,
    GPUBaseline,
    T2SBaseline,
    matrix_workload,
    tensor_workload,
)
from repro.formats import COOMatrix
from repro.kernels.spec import KERNELS, kernel_spec
from repro.serving import WorkloadPool
from repro.sim import FastModel, Tensaurus, TensaurusConfig
from repro.sim.accelerator import launch
from repro.sim.costs import kernel_costs
from repro.sim.driver import Instruction, Opcode, ProgramError, TensaurusDevice
from repro.sim.tiling import make_plan
from repro.tune import TuneWorkload, workload_from_dataset
from repro.tune.workload import synthetic_launch
from repro.util.errors import ConfigError, KernelError

from tests.conftest import random_tensor

CFG = TensaurusConfig()
TENSOR = random_tensor(shape=(12, 9, 7), density=0.2, seed=1)
MATRIX = COOMatrix.from_dense(
    np.where(np.random.default_rng(2).random((10, 8)) < 0.3, 1.5, 0.0)
)
POOL = WorkloadPool(seed=3, rank=4)
#: One workload of each operand order.
ITEMS = {3: POOL["tensor-s"], 2: POOL["matrix-s"]}

#: Every registered name: a family's name and its two report names.
NAMES = list(dict.fromkeys(
    name for spec in KERNELS for name in (spec.name, spec.sparse, spec.dense)
))


def _dense(spec, shape):
    """Dense operands in ``run_*`` order for an operand of ``shape``."""
    rng = np.random.default_rng(4)
    if spec.order == 3:
        width = 3 if spec.name == "ttmc" else 4
        return rng.random((shape[1], 4)), rng.random((shape[2], width))
    if spec.name == "spmv":
        return (rng.random(shape[1]),)
    return (rng.random((shape[1], 4)),)


def test_table_order_and_names():
    assert [spec.name for spec in KERNELS] == ["mttkrp", "ttmc", "spmm", "spmv"]
    assert len(NAMES) == 10


@pytest.mark.parametrize("name", NAMES)
def test_every_entry_resolves_the_name(name):
    spec = kernel_spec(name.upper())
    assert name in (spec.name, spec.sparse, spec.dense)
    family = spec.name
    sparse, other = (TENSOR, MATRIX) if spec.order == 3 else (MATRIX, TENSOR)

    # The family-level entries take all three names.
    assert make_plan(name, CFG, sparse.shape, rank=4, rank2=3).kernel == family
    assert FastModel(CFG).run(name, sparse, 4, 3).kernel == spec.sparse
    assert TuneWorkload(name, "w", sparse, rank=4, rank2=3).kernel == family
    with pytest.raises(ConfigError):
        TuneWorkload(name, "w", other, rank=4, rank2=3)
    dataset = "poisson3D" if spec.order == 3 else "vgg16-c1_1"
    workload = workload_from_dataset(name, dataset, rank=4)
    assert workload.kernel == family
    # The fields enter the workload fingerprint, so they stay canonical.
    assert (workload.rank, workload.rank2) == {
        "mttkrp": (4, 0), "ttmc": (4, 4), "spmm": (4, 0), "spmv": (0, 0)
    }[family]
    acc = Tensaurus(CFG)
    report = launch(
        acc, name, sparse, _dense(spec, sparse.shape), compute_output=False
    )
    assert report.kernel == spec.sparse
    dense_operand = sparse.to_dense()
    report = launch(
        acc, name, dense_operand, _dense(spec, dense_operand.shape),
        compute_output=False,
    )
    assert report.kernel == spec.dense
    assert synthetic_launch(acc, name, sparse, 4, 3).kernel == spec.sparse
    assert ITEMS[spec.order].run(name, acc).kernel == spec.sparse
    with pytest.raises(KernelError):
        ITEMS[5 - spec.order].run(name, acc)

    # The baselines take all three names and reject the wrong order.
    if spec.order == 3:
        stats = tensor_workload(name, TENSOR, 4, 3)
        dense_stats = tensor_workload(name, dense_operand, 4, 3)
        with pytest.raises(KernelError):
            matrix_workload(name, MATRIX, 4)
        with pytest.raises(KernelError):
            CambriconXBaseline().run(stats)
    else:
        stats = matrix_workload(name, MATRIX, 4)
        dense_stats = matrix_workload(name, dense_operand, 4)
        with pytest.raises(KernelError):
            tensor_workload(name, TENSOR, 4)
        assert CambriconXBaseline().run(stats).kernel == name
    assert stats.spec is spec and stats.kernel == name
    for model in (CPUBaseline(), GPUBaseline()):
        assert model.run(stats).time_s > 0
        assert model.run(dense_stats).time_s > 0
    if family == "spmv":
        with pytest.raises(KernelError, match="does not implement"):
            T2SBaseline().run(dense_stats)
    else:
        assert T2SBaseline().run(dense_stats).ops == dense_stats.ops

    # The cost tables and the driver's mode register tell sparse from
    # dense, so they take report names only.
    device = TensaurusDevice(CFG)
    set_mode = [Instruction(Opcode.SET_MODE, name.upper())]
    if name in (spec.sparse, spec.dense):
        assert kernel_costs(name, CFG, 8, 4).kernel == name
        device.execute(set_mode)
        assert device.state.kernel == name
    else:
        with pytest.raises(KernelError):
            kernel_costs(name, CFG, 8, 4)
        with pytest.raises(ProgramError, match="unknown kernel"):
            device.execute(set_mode)


@pytest.mark.parametrize("name", ["spgemm", "sddmm", "mttkrp2", ""])
def test_an_unknown_name_is_rejected_at_every_entry(name):
    acc = Tensaurus(CFG)
    calls = [
        lambda: kernel_spec(name),
        lambda: make_plan(name, CFG, (4, 4), rank=2),
        lambda: FastModel(CFG).run(name, MATRIX, 2),
        lambda: TuneWorkload(name, "w", MATRIX, rank=2),
        lambda: workload_from_dataset(name, "poisson3D"),
        lambda: tensor_workload(name, TENSOR, 2),
        lambda: matrix_workload(name, MATRIX, 2),
        lambda: kernel_costs(name, CFG, 8),
        lambda: launch(acc, name, MATRIX, (np.ones(8),)),
        lambda: synthetic_launch(acc, name, MATRIX, 2),
        lambda: ITEMS[2].run(name, acc),
    ]
    for call in calls:
        with pytest.raises(KernelError, match="unknown kernel"):
            call()
    with pytest.raises(ProgramError, match="unknown kernel"):
        TensaurusDevice(CFG).execute([Instruction(Opcode.SET_MODE, name)])
