"""Workload pool and synthetic request traces for the serving layer.

The pool holds a small set of named, seeded workloads (sparse tensors
with factor matrices, sparse matrices with dense operands) so that a
request only needs to carry ``(kernel, workload)`` strings and the
server can execute it at any degradation tier. :func:`synthetic_trace`
turns a seed into a deterministic stream of Poisson arrivals with an
overload spike in the middle — the load shape the benchmark drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.generators import random_sparse_tensor, uniform_matrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spec import KERNELS, kernel_spec
from repro.serving.request import ServingRequest
from repro.sim.accelerator import launch
from repro.util.errors import ConfigError, KernelError
from repro.util.rng import derive_seed, make_rng


@dataclass
class WorkloadItem:
    """One named workload: a kernel-agnostic operand bundle.

    ``run`` executes the workload on a :class:`repro.sim.Tensaurus`
    (full or batched tier); the analytic tier evaluates ``operand`` and
    ``ranks`` with :meth:`repro.sim.perfmodel.FastModel.run`. ``nnz``
    feeds the serving cost model.
    """

    name: str
    kind: str  # "tensor" | "matrix": also the key of the sparse operand
    nnz: int
    operands: Dict[str, Any] = field(default_factory=dict)
    _fingerprint: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        """Stable content fingerprint of the operand bundle.

        The fleet's consistent-hash ring routes on this (not on the
        name), so the same tensor data always lands on the shard whose
        :class:`repro.sim.batch.EncodingCache` already holds its CISS
        stream — regardless of what the caller named the workload.
        Independent of Python's per-process ``hash()`` randomization.
        """
        if self._fingerprint is None:
            from repro.artifacts import fingerprint_value

            keys = sorted(self.operands)
            self._fingerprint = fingerprint_value(
                self.kind, keys, *[self.operands[k] for k in keys]
            )
        return self._fingerprint

    @property
    def order(self) -> int:
        """Order of the sparse operand: 3 for a tensor, 2 for a matrix."""
        return 3 if self.kind == "tensor" else 2

    @property
    def operand(self):
        """The sparse operand: the tensor or the CSR matrix."""
        return self.operands[self.kind]

    @property
    def ranks(self) -> Tuple[int, ...]:
        """Factor widths in :meth:`FastModel.run` order: F1 and F2 of a
        tensor workload, the SpMM column count of a matrix workload."""
        op = self.operands
        return tuple(op[k].shape[1] for k in ("mat_b", "mat_c") if k in op)

    def run(self, kernel: str, accelerator, compute_output: bool = True):
        """Execute on a simulated accelerator; returns a SimReport."""
        spec = kernel_spec(kernel)
        if spec.order != self.order:
            raise KernelError(
                f"{kernel!r} does not run on {self.kind} workload {self.name!r}"
            )
        op = self.operands
        if spec.order == 3:
            dense = (op["mat_b"], op["mat_c"])
        else:
            dense = (op["vec"] if spec.name == "spmv" else op["mat_b"],)
        return launch(
            accelerator, kernel, self.operand, dense,
            compute_output=compute_output,
        )


class WorkloadPool:
    """A seeded catalog of small/medium workloads keyed by name.

    Sizes are deliberately modest (hundreds to a few thousand nonzeros)
    so a serving trace with hundreds of requests executes real simulator
    launches in seconds; the *virtual* cost model is what creates
    overload, not wall-clock weight.
    """

    def __init__(
        self, seed: int = 0, rank: int = 8, variants: int = 1
    ) -> None:
        if rank <= 0:
            raise ConfigError("rank must be positive")
        if variants <= 0:
            raise ConfigError("variants must be positive")
        self.seed = int(seed)
        self.rank = int(rank)
        #: independent seeded instances per size class. ``variants=1``
        #: keeps the original five names (and tensors) bit-identical;
        #: larger pools give a sharded fleet enough distinct ring keys
        #: to balance — suffixed ``-v1``, ``-v2``, ... beyond the first.
        self.variants = int(variants)
        self.items: Dict[str, WorkloadItem] = {}
        self._build()

    def _variant_names(self, base: str) -> List[str]:
        return [base] + [
            f"{base}-v{v}" for v in range(1, self.variants)
        ]

    def _build(self) -> None:
        rank = self.rank
        tensor_specs = [
            ("tensor-s", (24, 16, 12), 300, 1.0),
            ("tensor-m", (48, 24, 16), 1200, 1.2),
            ("tensor-l", (64, 32, 24), 3600, 1.4),
        ]
        for base, shape, nnz, skew in tensor_specs:
            for name in self._variant_names(base):
                t = random_sparse_tensor(
                    shape, nnz, skew=skew,
                    seed=derive_seed(self.seed, "pool", name),
                )
                rng = make_rng(derive_seed(self.seed, "pool", name, "mats"))
                self.items[name] = WorkloadItem(
                    name=name, kind="tensor", nnz=t.nnz,
                    operands={
                        "tensor": t,
                        "mat_b": rng.standard_normal((shape[1], rank)),
                        "mat_c": rng.standard_normal((shape[2], rank)),
                    },
                )
        matrix_specs = [
            ("matrix-s", (64, 64), 0.05),
            ("matrix-m", (128, 128), 0.08),
        ]
        for base, shape, density in matrix_specs:
            for name in self._variant_names(base):
                m = uniform_matrix(
                    shape, density,
                    seed=derive_seed(self.seed, "pool", name),
                )
                rng = make_rng(derive_seed(self.seed, "pool", name, "mats"))
                self.items[name] = WorkloadItem(
                    name=name, kind="matrix", nnz=m.nnz,
                    operands={
                        "matrix": CSRMatrix.from_coo(m),
                        "mat_b": rng.standard_normal((shape[1], rank)),
                        "vec": rng.standard_normal(shape[1]),
                    },
                )

    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> WorkloadItem:
        try:
            return self.items[name]
        except KeyError:
            raise KernelError(f"unknown workload {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self.items)

    def choices(self) -> List[Tuple[str, str]]:
        """All valid ``(kernel, workload)`` pairs, in stable order."""
        return [
            (spec.name, name)
            for name in self.names()
            for spec in KERNELS
            if spec.order == self.items[name].order
        ]


def synthetic_trace(
    pool: WorkloadPool,
    duration_s: float = 1.0,
    base_rate: float = 100.0,
    spike_factor: float = 10.0,
    spike_window: Tuple[float, float] = (0.4, 0.6),
    deadline_s: float = 0.05,
    seed: Optional[int] = None,
    priority_levels: int = 3,
    tenants: Tuple[str, ...] = ("default",),
) -> List[ServingRequest]:
    """A deterministic Poisson arrival trace with an overload spike.

    Arrivals follow an inhomogeneous Poisson process: ``base_rate``
    requests per virtual second outside ``spike_window`` (fractions of
    ``duration_s``), ``spike_factor`` times that inside it — the classic
    10x overload step the benchmark gates on. Kernels, workloads,
    priorities and (lightly jittered) deadlines are drawn from seeded
    child streams, so the same seed always yields the same trace.

    ``tenants`` attributes each request to a quota bucket via its own
    seeded stream — the default single tenant leaves every other stream
    (arrivals, choices) untouched, so pre-fleet traces replay
    bit-identically.
    """
    if duration_s <= 0 or base_rate <= 0 or spike_factor < 1:
        raise ConfigError("duration, rate must be positive; spike_factor >= 1")
    lo, hi = spike_window
    if not 0 <= lo <= hi <= 1:
        raise ConfigError("spike_window must satisfy 0 <= lo <= hi <= 1")
    if not tenants:
        raise ConfigError("tenants must name at least one tenant")
    seed = pool.seed if seed is None else int(seed)
    arrival_rng = make_rng(derive_seed(seed, "trace", "arrivals"))
    choice_rng = make_rng(derive_seed(seed, "trace", "choices"))
    tenant_rng = make_rng(derive_seed(seed, "trace", "tenants"))
    pairs = pool.choices()
    requests: List[ServingRequest] = []
    now = 0.0
    rid = 0
    spike_lo, spike_hi = lo * duration_s, hi * duration_s
    while True:
        rate = base_rate * (
            spike_factor if spike_lo <= now < spike_hi else 1.0
        )
        # Exponential inter-arrival gap at the current rate (thinning-free
        # because the rate is piecewise constant and gaps are short).
        now += -math.log1p(-arrival_rng.random()) / rate
        if now >= duration_s:
            break
        kernel, workload = pairs[int(choice_rng.integers(0, len(pairs)))]
        priority = int(choice_rng.integers(1, priority_levels + 1))
        jitter = 0.5 + choice_rng.random()  # deadline in [0.5, 1.5) x nominal
        tenant = tenants[int(tenant_rng.integers(0, len(tenants)))]
        requests.append(
            ServingRequest(
                request_id=rid,
                arrival_s=now,
                kernel=kernel,
                workload=workload,
                deadline_s=deadline_s * jitter,
                priority=priority,
                tenant=tenant,
            )
        )
        rid += 1
    return requests


def trace_stats(requests: List[ServingRequest]) -> Dict[str, float]:
    """Summary statistics of a trace (for benchmark JSON output)."""
    if not requests:
        return {"count": 0}
    arrivals = np.array([r.arrival_s for r in requests])
    gaps = np.diff(arrivals) if len(arrivals) > 1 else np.array([0.0])
    return {
        "count": len(requests),
        "duration_s": float(arrivals[-1]),
        "mean_gap_s": float(gaps.mean()) if gaps.size else 0.0,
        "peak_rate_hz": float(1.0 / max(gaps.min(), 1e-9)) if gaps.size else 0.0,
    }
