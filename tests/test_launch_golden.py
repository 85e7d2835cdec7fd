"""Frozen digests of every launch kind the simulator prices.

One case is one kernel family on one operand kind, run through the public
``Tensaurus.run_*`` method on a fresh accelerator: the tensor kernels on a
sparse and a dense tensor over modes 0-2, SpMM and SpMV on COO, CSR and
dense operands. Every case runs each launch at ``auto``, ``buffered`` and
``direct``, once plainly and once under :func:`repro.obs.observe`. A row
holds every report field, the output bytes, ``faults``,
``fault_events``, ``phase_cycles`` and ``cache_info()`` after the launch;
an observed row also holds the metrics snapshot. ``clean`` cases run with
no fault plan, ``armed`` ones under :data:`ARMED` (SPM bit flips, HBM
stalls and outages, 20% PE-lane dropout).

The dense operands tile into several blocks on every axis under
:data:`CFG`, with clipped edge tiles and buffered writebacks that are not
whole HBM bursts. So the per-i-block rounding of the dense writeback, the
i, j, k order of the dense tiles (per-tile fault draws are keyed by tile
position) and the lane deal over the surviving lanes each move a digest.

The constants were computed from the four per-operand launch routines
(sparse and dense, tensor and matrix). Never re-baseline them: a match
proves that a change to the launch path is exact.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.datasets.generators import random_sparse_tensor
from repro.formats import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.sim import FaultPlan, Tensaurus, TensaurusConfig
from repro.util.rng import make_rng

CFG = TensaurusConfig(spm_kb=2, msu_kb=8)
ARMED = FaultPlan(
    seed=23,
    spm_bitflip_rate=0.1,
    hbm_stall_rate=0.1,
    hbm_outage_rate=0.05,
    pe_lane_dropout_rate=0.2,
)
TENSOR_SHAPE = (400, 75, 90)
MATRIX_SHAPE = (2000, 130)
#: MTTKRP rank 7 drains 28-byte output rows: no buffered writeback of a
#: dense i block is a whole 64-byte HBM burst.
MTTKRP_RANK = 7
TTMC_RANKS = (5, 7)
SPMM_COLS = 12
MSU_MODES = ("auto", "buffered", "direct")

LAUNCH_KIND_GOLDEN = {
    "mttkrp/sparse/clean": "7f1451f54aff208fee630674286952419fded871c6f230f966fb7776b441b9d1",
    "mttkrp/sparse/armed": "75bbddbb035689401c1eb4edf9d428647dda271c5387d3429f2713a834e5ee3a",
    "mttkrp/dense/clean": "e20ce57d60e9530e0041db13ac03053f9d08d4ef47c5177092fb6bd3c3f8c8a4",
    "mttkrp/dense/armed": "2017d9503b6caaddca94921625a5fce0704e8b1f41af5a5ee4946154d0dd50bf",
    "ttmc/sparse/clean": "f2715e8ba5759975238b05fbda5d364bec254066d4d36e3b9326f4d8a796e674",
    "ttmc/sparse/armed": "32162fcb5a4af5099ee0c1e27c2190470ee5f2ef5ae031c30b6969b31242b8ae",
    "ttmc/dense/clean": "10dd5c92ccc0e6aece392524b91a711f6707f7b8fb3a7fd1db5388396f255d43",
    "ttmc/dense/armed": "b5f3724e34648b906a968c385d603d5881039c029fdbf408c4d562b28633e11c",
    "spmm/coo/clean": "0a22dca55e4019aeb0964f8b641ca62161b74622f2903da87deaa559eb2819c7",
    "spmm/coo/armed": "07ab58d18c6821ed0f9fd848ef0ad63cb3f09115390938e92f3ca24c4d7c7e8e",
    "spmm/csr/clean": "705242475d5149fe9e62bb0fcadc3f8de3c14dcb221c3bd13fd95b6ee7260474",
    "spmm/csr/armed": "ef9db84d917af5cb648ece29fa04872899c31c0a7ce6d99d4bd8b7aa4fe55e2b",
    "spmm/dense/clean": "a0a9ec62387fe3145b43ae522c6df9f5de6569393b38352306a8211670b8ef6a",
    "spmm/dense/armed": "c2f76c6bd10e06a77a384d2810e4b9f30fe70db39748183f255a55cb8345003c",
    "spmv/coo/clean": "76636d063bc9e58c9e36664e0922d8fb47c0677f27ac73fa973c3046a33eb2ba",
    "spmv/coo/armed": "1430694b0f69b6b391d74ce64372d75d629e1de5ad7fbf575500619aaca61cbf",
    "spmv/csr/clean": "d065feb5bc405c724d5ae462d776bb1387093c63ee31c11638822aee0cd04932",
    "spmv/csr/armed": "a200ba8ae199daee075d5923ca1bd3507157abdb04e283e5f741db3a3c39da15",
    "spmv/dense/clean": "418c66a5b24d45e25eac0fd2a9c6f54fd4f1fd73c20f03d2a5183b63c3a0f849",
    "spmv/dense/armed": "93073639c05c9c0c6e00e23a835a7766c7b3c9d1bc62dfc7af10140c6b96e704",
}


def operand(kind: str, order: int):
    """The seeded operand of one kind: a tensor for order 3, else a matrix."""
    if order == 3:
        if kind == "sparse":
            return random_sparse_tensor(TENSOR_SHAPE, 5000, skew=1.2, seed=5)
        return make_rng(6).standard_normal(TENSOR_SHAPE)
    rng = make_rng(8)
    if kind == "dense":
        return rng.standard_normal(MATRIX_SHAPE)
    coo = COOMatrix(
        MATRIX_SHAPE,
        rng.integers(0, MATRIX_SHAPE[0], 6000),
        rng.integers(0, MATRIX_SHAPE[1], 6000),
        rng.standard_normal(6000),
    )
    return CSRMatrix.from_coo(coo) if kind == "csr" else coo


def launches(family: str, a):
    """``(mode, msu_mode, launch)`` for every launch of one case."""
    rng = make_rng(9)
    if family in ("mttkrp", "ttmc"):
        ranks = (MTTKRP_RANK,) * 2 if family == "mttkrp" else TTMC_RANKS
        run = getattr(Tensaurus, f"run_{family}")
        for mode in range(3):
            rest = [m for m in range(3) if m != mode]
            b, c = (rng.standard_normal((a.shape[m], r)) for m, r in zip(rest, ranks))
            for msu in MSU_MODES:
                yield mode, msu, lambda acc, b=b, c=c, mode=mode, msu=msu: run(
                    acc, a, b, c, mode=mode, msu_mode=msu
                )
        return
    if family == "spmm":
        dense = rng.standard_normal((MATRIX_SHAPE[1], SPMM_COLS))
    else:
        dense = rng.standard_normal(MATRIX_SHAPE[1])
    run = getattr(Tensaurus, f"run_{family}")
    for msu in MSU_MODES:
        yield 0, msu, lambda acc, msu=msu: run(acc, a, dense, msu_mode=msu)


def array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def row(acc: Tensaurus, report, mode: int, msu: str, snapshot):
    """Every field of one launch's report plus the cache counters after
    it. Values keep their Python types (``repr``), so a field that turns
    from ``int`` into a numpy integer moves the digest too."""
    return (
        report.kernel, mode, msu,
        report.cycles, report.ops, report.tensor_bytes,
        report.matrix_bytes, report.output_bytes, report.clock_ghz,
        list(report.detail.items()),
        array_digest(report.output),
        list(report.faults.items()),
        [(e.kind, e.location, e.detected, e.info) for e in report.fault_events],
        None if report.phase_cycles is None else list(report.phase_cycles.items()),
        sorted(acc.cache_info().items()),
        snapshot,
    )


def case_rows(key: str):
    family, kind, faults = key.split("/")
    order = 3 if family in ("mttkrp", "ttmc") else 2
    a = operand(kind, order)
    acc = Tensaurus(CFG, fault_plan=ARMED if faults == "armed" else None)
    rows = []
    for mode, msu, launch in launches(family, a):
        rows.append(row(acc, launch(acc), mode, msu, None))
        with obs.observe() as ob:
            report = launch(acc)
        snapshot = json.dumps(ob.registry.snapshot(), sort_keys=True)
        rows.append(row(acc, report, mode, msu, snapshot))
    return rows


@pytest.mark.parametrize("key", list(LAUNCH_KIND_GOLDEN))
def test_launch_kind_golden(key):
    rows = case_rows(key)
    got = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert got == LAUNCH_KIND_GOLDEN[key], f"{key}: digest moved"
    if key.endswith("armed"):
        faults = [dict(r[11]) for r in rows]
        assert any(f.get("lanes_dropped", 0) for f in faults)
        assert any(f.get("fault_overhead_cycles", 0) for f in faults)
