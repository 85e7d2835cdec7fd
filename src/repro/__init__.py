"""Tensaurus reproduction: a versatile accelerator for mixed sparse-dense
tensor computations (Srivastava et al., HPCA 2020), rebuilt in Python.

The package layers, bottom to top:

- :mod:`repro.tensor` — the N-dimensional sparse tensor substrate.
- :mod:`repro.formats` — storage formats, including the paper's CISS.
- :mod:`repro.kernels` — reference kernels and the SF3 compute pattern.
- :mod:`repro.factorization` — CP-ALS and Tucker-HOOI on those kernels.
- :mod:`repro.sim` — the cycle-level accelerator simulator (with the
  fault-injection layer in :mod:`repro.sim.faults`).
- :mod:`repro.resilience` — host-side retry policies and checkpoints.
- :mod:`repro.baselines` / :mod:`repro.energy` — comparison platforms.
- :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets.
- :mod:`repro.analysis` — rooflines and result tables.
- :mod:`repro.tune` — auto-tuning config search over the design space.
- :mod:`repro.obs` — opt-in tracing, metrics, and structured logging.

Quick start::

    from repro import Tensaurus, datasets
    acc = Tensaurus()
    tensor = datasets.load_tensor("nell-2")
    import numpy as np
    rng = np.random.default_rng(0)
    b = rng.random((tensor.shape[1], 32))
    c = rng.random((tensor.shape[2], 32))
    report = acc.run_mttkrp(tensor, b, c, mode=0)
    print(report.summary())
"""

from repro import analysis, baselines, datasets, energy, factorization
from repro import formats, kernels, obs, resilience, sim, tensor, tune, util
from repro.formats import CISSMatrix, CISSTensor
from repro.resilience import CheckpointStore, RetryPolicy
from repro.sim import FastModel, FaultPlan, Tensaurus, TensaurusConfig
from repro.tensor import SparseTensor

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "baselines",
    "datasets",
    "energy",
    "factorization",
    "formats",
    "kernels",
    "obs",
    "resilience",
    "sim",
    "tensor",
    "tune",
    "util",
    "CISSMatrix",
    "CISSTensor",
    "CheckpointStore",
    "FastModel",
    "FaultPlan",
    "RetryPolicy",
    "Tensaurus",
    "TensaurusConfig",
    "SparseTensor",
    "__version__",
]
