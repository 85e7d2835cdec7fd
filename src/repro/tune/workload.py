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
from repro.sim.config import TensaurusConfig
from repro.sim.perfmodel import FastModel
from repro.sim.report import SimReport
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError, KernelError
from repro.util.rng import make_rng

TENSOR_KERNELS = ("mttkrp", "ttmc")
MATRIX_KERNELS = ("spmm", "spmv")
#: Seed for the synthesized dense factors (values don't affect timing).
FACTOR_SEED = 0


def _canonical_kernel(kernel: str) -> str:
    k = kernel.lower()
    aliases = {
        "spmttkrp": "mttkrp", "dmttkrp": "mttkrp", "mttkrp": "mttkrp",
        "spttmc": "ttmc", "dttmc": "ttmc", "ttmc": "ttmc",
        "spmm": "spmm", "gemm": "spmm",
        "spmv": "spmv", "gemv": "spmv",
    }
    if k not in aliases:
        raise KernelError(f"unknown kernel {kernel!r}")
    return aliases[k]


@dataclass(frozen=True)
class TuneWorkload:
    """One kernel invocation to tune a config for."""

    kernel: str           # canonical: mttkrp | ttmc | spmm | spmv
    name: str             # human-readable registry key, e.g. "mttkrp/nell-2/r32"
    operand: object       # SparseTensor (tensor kernels) or COO/CSR matrix
    rank: int = 0         # F / F1 / SpMM dense columns
    rank2: int = 0        # TTMc F2
    mode: int = 0         # tensor target mode
    msu_mode: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", _canonical_kernel(self.kernel))
        if self.kernel in TENSOR_KERNELS:
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
        op = self._build_operand()
        rng = make_rng(FACTOR_SEED)
        if p["kernel"] == "mttkrp":
            rest = [m for m in range(3) if m != p["mode"]]
            b = rng.random((op.shape[rest[0]], p["rank"]))
            c = rng.random((op.shape[rest[1]], p["rank"]))
            return acc.run_mttkrp(
                op, b, c, mode=p["mode"], msu_mode=p["msu_mode"],
                compute_output=False,
            )
        if p["kernel"] == "ttmc":
            rest = [m for m in range(3) if m != p["mode"]]
            b = rng.random((op.shape[rest[0]], p["rank"]))
            c = rng.random((op.shape[rest[1]], p["rank2"]))
            return acc.run_ttmc(
                op, b, c, mode=p["mode"], msu_mode=p["msu_mode"],
                compute_output=False,
            )
        if p["kernel"] == "spmm":
            b = rng.random((op.shape[1], p["rank"]))
            return acc.run_spmm(
                op, b, msu_mode=p["msu_mode"], compute_output=False
            )
        x = rng.random(op.shape[1])
        return acc.run_spmv(
            op, x, msu_mode=p["msu_mode"], compute_output=False
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

    k = _canonical_kernel(kernel)
    name = f"{k}/{dataset}/r{rank}" if k != "spmv" else f"{k}/{dataset}"
    if k in TENSOR_KERNELS:
        tensor = datasets.load_tensor(dataset, store=store)
        if k == "mttkrp":
            return TuneWorkload.mttkrp(
                tensor, rank, mode=mode, msu_mode=msu_mode, name=name
            )
        return TuneWorkload.ttmc(
            tensor, rank, rank, mode=mode, msu_mode=msu_mode, name=name
        )
    if dataset in datasets.SUITESPARSE_DATASETS:
        matrix = datasets.load_matrix(dataset, store=store)
    elif dataset in datasets.CNN_LAYERS:
        matrix = datasets.load_cnn_layer(dataset, store=store)
    else:
        raise ConfigError(f"unknown matrix dataset {dataset!r}")
    if k == "spmm":
        return TuneWorkload.spmm(matrix, rank, msu_mode=msu_mode, name=name)
    return TuneWorkload.spmv(matrix, msu_mode=msu_mode, name=name)
