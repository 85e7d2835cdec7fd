"""Sparse storage formats.

This package implements every storage format the paper discusses:

- :class:`COOMatrix`, :class:`CSRMatrix` — conventional matrix formats
  (Section 4, Related Work).
- :class:`ExtendedCSRTensor` — the paper's extended-CSR layout for 3-d
  tensors (Fig. 3b), the strawman CISS is compared against.
- :class:`CSFTensor` — SPLATT's compressed sparse fiber tree, used by the
  CPU baseline.
- :class:`CISSMatrix` / :class:`CISSTensor` — the paper's contribution:
  compressed interleaved sparse slice, for matrices and 3-d tensors.

All formats encode from and decode back to the canonical COO substrate
(:class:`repro.tensor.SparseTensor` or raw triplets) so round-trips are
testable uniformly.
"""

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.extended_csr import ExtendedCSRTensor
from repro.formats.csf import CSFTensor
from repro.formats.ciss import (
    CISSMatrix,
    CISSTensor,
    KIND_HEADER,
    KIND_NNZ,
    KIND_PAD,
)
from repro.formats.ciss_nd import CISSTensorND
from repro.formats.hicoo import HiCOOTensor

__all__ = [
    "CISSTensorND",
    "HiCOOTensor",
    "COOMatrix",
    "CSRMatrix",
    "ExtendedCSRTensor",
    "CSFTensor",
    "CISSMatrix",
    "CISSTensor",
    "KIND_HEADER",
    "KIND_NNZ",
    "KIND_PAD",
]
