"""Functional reference kernels.

Every computation the accelerator supports (Table 1) has a numpy reference
implementation here: MTTKRP and TTMc (dense and sparse, naive and
operand-factored), GEMM/SpMM, GEMV/SpMV, and the SF3 compute-pattern
executor the hardware is built around. The simulator's outputs are checked
against these, and the factorization algorithms call them. The kernel
table (:mod:`repro.kernels.spec`) declares each family's names and op
count once.
"""

from repro.kernels.linalg import hadamard, khatri_rao, kron_vec
from repro.kernels.mttkrp import (
    mttkrp_dense,
    mttkrp_dense_factored,
    mttkrp_sparse,
    mttkrp_sparse_factored,
    mttkrp_flops,
)
from repro.kernels.ttmc import (
    ttmc_dense,
    ttmc_dense_factored,
    ttmc_sparse,
    ttmc_sparse_factored,
    ttmc_flops,
)
from repro.kernels.matmul import gemm, gemv, spmm, spmv
from repro.kernels.spec import KERNELS, KernelSpec, kernel_spec
from repro.kernels.sf3 import (
    SF3Spec,
    execute_sf3,
    sf3_spec_mttkrp,
    sf3_spec_ttmc,
    sf3_spec_spmm,
    sf3_spec_spmv,
)

__all__ = [
    "hadamard",
    "khatri_rao",
    "kron_vec",
    "mttkrp_dense",
    "mttkrp_dense_factored",
    "mttkrp_sparse",
    "mttkrp_sparse_factored",
    "mttkrp_flops",
    "ttmc_dense",
    "ttmc_dense_factored",
    "ttmc_sparse",
    "ttmc_sparse_factored",
    "ttmc_flops",
    "gemm",
    "gemv",
    "spmm",
    "spmv",
    "SF3Spec",
    "execute_sf3",
    "sf3_spec_mttkrp",
    "sf3_spec_ttmc",
    "sf3_spec_spmm",
    "sf3_spec_spmv",
    "KERNELS",
    "KernelSpec",
    "kernel_spec",
]
