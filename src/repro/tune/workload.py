"""Workload descriptions the tuner optimizes against.

A :class:`TuneWorkload` pins down one kernel invocation — the sparse
operand, kernel, rank/mode parameters, MSU policy — in a form that every
tier of the tuner can consume:

- the **cheap tier** calls :meth:`fast_report` (closed-form
  :class:`~repro.sim.perfmodel.FastModel`);
- the **oracle tier** calls :meth:`runner`, a picklable callable that
  :func:`repro.sim.sweep.sweep_points` can hand to its process pool. The
  dense factor operands are synthesized deterministically from shapes
  wherever the runner runs (timing ignores values under
  ``compute_output=False``), so only the sparse structure rides to
  workers;
- the **artifact layer** keys oracle memoization on
  :meth:`fingerprint`, a content digest of the operand and kernel
  parameters, so cached cycle counts never alias across workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.artifacts import fingerprint_value
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spec import kernel_spec
from repro.sim.accelerator import launch
from repro.sim.config import TensaurusConfig
from repro.sim.perfmodel import FastModel
from repro.sim.report import SimReport
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError
from repro.util.rng import make_rng

#: Seed for the synthesized dense factors (values don't affect timing).
FACTOR_SEED = 0


def synthetic_launch(
    accelerator,
    kernel: str,
    operand,
    rank: int = 0,
    rank2: int = 0,
    mode: int = 0,
    msu_mode: str = "auto",
) -> SimReport:
    """Time one ``kernel`` launch on ``operand`` (``compute_output=False``).

    Timing never reads the dense operands' values, so they are drawn
    from their shapes alone with :data:`FACTOR_SEED`: B and C ``rank``
    wide (C ``rank2`` wide for TTMc), SpMM's B ``rank`` wide, SpMV's x.
    """
    spec = kernel_spec(kernel)
    rng = make_rng(FACTOR_SEED)
    shape = operand.shape
    if spec.order == 3:
        rest = [m for m in range(3) if m != mode]
        dense = [
            rng.random((shape[rest[0]], rank)),
            rng.random((shape[rest[1]], rank2 if spec.name == "ttmc" else rank)),
        ]
    elif spec.name == "spmv":
        dense = [rng.random(shape[1])]
    else:
        dense = [rng.random((shape[1], rank))]
    return launch(
        accelerator, kernel, operand, dense, mode=mode, msu_mode=msu_mode,
        compute_output=False,
    )


@dataclass(frozen=True)
class TuneWorkload:
    """One kernel invocation to tune a config for."""

    kernel: str           # family name: mttkrp | ttmc | spmm | spmv
    name: str             # human-readable registry key, e.g. "mttkrp/nell-2/r32"
    operand: object       # SparseTensor (tensor kernels) or COO/CSR matrix
    rank: int = 0         # F / F1 / SpMM dense columns
    rank2: int = 0        # TTMc F2
    mode: int = 0         # tensor target mode
    msu_mode: str = "auto"

    def __post_init__(self) -> None:
        spec = kernel_spec(self.kernel)
        object.__setattr__(self, "kernel", spec.name)
        if spec.order == 3:
            if not isinstance(self.operand, SparseTensor):
                raise ConfigError(f"{self.kernel} needs a SparseTensor operand")
            if self.rank <= 0:
                raise ConfigError(f"{self.kernel} needs a positive rank")
        else:
            if not isinstance(self.operand, (COOMatrix, CSRMatrix)):
                raise ConfigError(f"{self.kernel} needs a sparse matrix operand")
            if self.kernel == "spmm" and self.rank <= 0:
                raise ConfigError("spmm needs a positive column count (rank)")

    # ------------------------------------------------------------------
    @classmethod
    def mttkrp(cls, tensor, rank, mode=0, msu_mode="auto", name=None):
        return cls("mttkrp", name or f"mttkrp/r{rank}", tensor,
                   rank=rank, mode=mode, msu_mode=msu_mode)

    @classmethod
    def ttmc(cls, tensor, rank1, rank2=0, mode=0, msu_mode="auto", name=None):
        return cls("ttmc", name or f"ttmc/r{rank1}x{rank2 or rank1}", tensor,
                   rank=rank1, rank2=rank2 or rank1, mode=mode,
                   msu_mode=msu_mode)

    @classmethod
    def spmm(cls, matrix, ncols, msu_mode="auto", name=None):
        return cls("spmm", name or f"spmm/n{ncols}", matrix,
                   rank=ncols, msu_mode=msu_mode)

    @classmethod
    def spmv(cls, matrix, msu_mode="auto", name=None):
        return cls("spmv", name or "spmv", matrix, msu_mode=msu_mode)

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content digest for oracle memoization (excludes ``name``)."""
        return fingerprint_value(
            "tune-workload", self.kernel, self.operand,
            self.rank, self.rank2, self.mode, self.msu_mode,
        )

    def stats(self) -> dict:
        """Aggregate structure statistics (for logs and benchmarks)."""
        op = self.operand
        if isinstance(op, SparseTensor):
            shape, nnz = tuple(op.shape), op.nnz
        else:
            coo = op.to_coo() if isinstance(op, CSRMatrix) else op
            shape, nnz = tuple(coo.shape), coo.nnz
        return {
            "kernel": self.kernel,
            "shape": list(shape),
            "nnz": int(nnz),
            "density": float(nnz) / float(np.prod(shape)),
            "rank": self.rank,
            "rank2": self.rank2,
            "mode": self.mode,
            "msu_mode": self.msu_mode,
        }

    def fast_report(self, config: TensaurusConfig) -> SimReport:
        """Cheap-tier estimate under ``config`` (closed-form FastModel)."""
        return FastModel(config).run(
            self.kernel, self.operand, rank=self.rank, rank2=self.rank2,
            mode=self.mode, msu_mode=self.msu_mode,
        )

    # ------------------------------------------------------------------
    def runner(self) -> "WorkloadRunner":
        """A picklable oracle runner carrying the operand arrays inline."""
        op = self.operand
        payload = dict(
            kernel=self.kernel, rank=self.rank, rank2=self.rank2,
            mode=self.mode, msu_mode=self.msu_mode,
        )
        if isinstance(op, SparseTensor):
            arrays = {"coords": op.coords, "values": op.values}
            payload.update(kind="tensor", shape=tuple(op.shape))
        else:
            coo = op.to_coo() if isinstance(op, CSRMatrix) else op
            arrays = {"rows": coo.rows, "cols": coo.cols, "vals": coo.vals}
            payload.update(kind="matrix", shape=tuple(coo.shape))
        payload["arrays"] = {k: np.asarray(v) for k, v in arrays.items()}
        return WorkloadRunner(payload)


class WorkloadRunner:
    """Module-level picklable runner for ``sweep_configs``/``sweep_points``.

    Reconstructs the sparse operand from its arrays, synthesizes the dense
    factors from shapes with a fixed seed, and runs the kernel on the
    accelerator it is handed with ``compute_output=False`` (timing only —
    values never matter).
    """

    def __init__(self, payload: dict) -> None:
        self._p = payload
        self._operand = None

    def _get(self, key: str) -> np.ndarray:
        return self._p["arrays"][key]

    def _build_operand(self):
        if self._operand is None:
            if self._p["kind"] == "tensor":
                # Coordinates are canonical by construction (they came out
                # of a SparseTensor), so skip re-validation.
                self._operand = SparseTensor(
                    self._p["shape"], self._get("coords"),
                    self._get("values"), canonical=True,
                )
            else:
                self._operand = COOMatrix(
                    self._p["shape"], self._get("rows"),
                    self._get("cols"), self._get("vals"),
                )
        return self._operand

    def __call__(self, acc) -> SimReport:
        p = self._p
        return synthetic_launch(
            acc, p["kernel"], self._build_operand(), p["rank"], p["rank2"],
            p["mode"], p["msu_mode"],
        )

    def __getstate__(self) -> dict:
        # The lazily-built operand never rides the pickle stream; workers
        # rebuild it from the arrays.
        return {"_p": self._p}

    def __setstate__(self, state: dict) -> None:
        self._p = state["_p"]
        self._operand = None

    def __repr__(self) -> str:
        return f"WorkloadRunner({self._p['kernel']})"


def workload_from_dataset(
    kernel: str,
    dataset: str,
    rank: int = 32,
    mode: int = 0,
    msu_mode: str = "auto",
    store=None,
) -> TuneWorkload:
    """Build a :class:`TuneWorkload` from a registered dataset name."""
    from repro import datasets

    spec = kernel_spec(kernel)
    k = spec.name
    if spec.order == 3:
        operand = datasets.load_tensor(dataset, store=store)
    elif dataset in datasets.SUITESPARSE_DATASETS:
        operand = datasets.load_matrix(dataset, store=store)
    elif dataset in datasets.CNN_LAYERS:
        operand = datasets.load_cnn_layer(dataset, store=store)
    else:
        raise ConfigError(f"unknown matrix dataset {dataset!r}")
    if k == "spmv":  # no rank
        return TuneWorkload(k, f"{k}/{dataset}", operand, msu_mode=msu_mode)
    return TuneWorkload(
        k, f"{k}/{dataset}/r{rank}", operand,
        rank=rank,
        rank2=rank if k == "ttmc" else 0,
        mode=mode if spec.order == 3 else 0,
        msu_mode=msu_mode,
    )
