"""Sparse tensor substrate.

:class:`SparseTensor` is the N-dimensional coordinate-format tensor every
storage format (extended CSR, CSF, CISS) and kernel in this repository is
built from. It mirrors the role FROSTT ``.tns`` files play for SPLATT: a
canonical, format-neutral carrier of the nonzero structure.
"""

from repro.tensor.sparse import SparseTensor
from repro.tensor.dense import unfold_dense, fold_dense

__all__ = [
    "SparseTensor",
    "unfold_dense",
    "fold_dense",
]
