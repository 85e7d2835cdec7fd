"""Tensor factorization algorithms.

The two decompositions the accelerator serves (Section 1): canonical
polyadic decomposition via alternating least squares (whose bottleneck is
MTTKRP) and Tucker decomposition via higher-order orthogonal iterations
(whose bottleneck is TTMc). Both run every inner product through
:mod:`repro.kernels`, so they double as end-to-end exercises of the
accelerated kernels.
"""

from repro.factorization.cp import CPDecomposition, cp_als
from repro.factorization.tucker import TuckerDecomposition, tucker_hooi, hosvd
from repro.factorization.accelerated import (
    AcceleratedRun,
    accelerated_cp_als,
    accelerated_tucker_hooi,
)

__all__ = [
    "CPDecomposition",
    "cp_als",
    "TuckerDecomposition",
    "tucker_hooi",
    "hosvd",
    "AcceleratedRun",
    "accelerated_cp_als",
    "accelerated_tucker_hooi",
]
