"""HiCOO — hierarchical COO (Li, Sun, Vuduc; SC 2018).

A related-work sparse tensor format the paper discusses (Section 8):
nonzeros are grouped into aligned ``B x B x B`` blocks; each block stores
its block coordinates once at full width while elements store only narrow
within-block offsets. The payoff is index compression for clustered
tensors — worth having in the reproduction both as a software baseline
format and for the storage-overhead comparison benchmark.

Layout (per the HiCOO paper, simplified to one superblock level):

- ``bptr``  — (num_blocks + 1) pointers into the element arrays;
- ``bidx``  — (num_blocks, ndim) block coordinates (wide integers);
- ``eidx``  — (nnz, ndim) within-block offsets (narrow integers, < B);
- ``vals``  — (nnz,) values.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor import SparseTensor
from repro.util.errors import FormatError


class HiCOOTensor:
    """Hierarchical COO storage of an N-dimensional sparse tensor."""

    __slots__ = ("shape", "block", "bptr", "bidx", "eidx", "vals")

    def __init__(
        self,
        shape: Tuple[int, ...],
        block: int,
        bptr: np.ndarray,
        bidx: np.ndarray,
        eidx: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.block = int(block)
        if self.block < 1 or self.block & (self.block - 1):
            raise FormatError("block size must be a positive power of two")
        self.bptr = np.asarray(bptr, dtype=np.int64)
        self.bidx = np.asarray(bidx, dtype=np.int64)
        self.eidx = np.asarray(eidx, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        ndim = len(self.shape)
        if self.bidx.ndim != 2 or self.bidx.shape[1] != ndim:
            raise FormatError("bidx must be (num_blocks, ndim)")
        if self.bptr.shape != (self.bidx.shape[0] + 1,):
            raise FormatError("bptr must have num_blocks + 1 entries")
        if self.eidx.shape != (self.vals.shape[0], ndim):
            raise FormatError("eidx must be (nnz, ndim)")
        if self.bptr.size and (
            self.bptr[0] != 0 or self.bptr[-1] != self.vals.shape[0]
        ):
            raise FormatError("bptr endpoints inconsistent with values")
        if self.eidx.size and self.eidx.max() >= self.block:
            raise FormatError("element offsets must be < block size")

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def num_blocks(self) -> int:
        return int(self.bidx.shape[0])

    @classmethod
    def from_sparse(cls, tensor: SparseTensor, block: int = 128) -> "HiCOOTensor":
        """Encode with aligned ``block``-sized cubes (power of two)."""
        if block < 1 or block & (block - 1):
            raise FormatError("block size must be a positive power of two")
        coords = tensor.coords
        ndim = tensor.ndim
        if tensor.nnz == 0:
            return cls(
                tensor.shape, block,
                np.zeros(1, dtype=np.int64),
                np.empty((0, ndim), dtype=np.int64),
                np.empty((0, ndim), dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        shift = int(np.log2(block))
        # Group by block: canonical COO order is element-lexicographic, so
        # a stable sort by linearized block id keeps within-block order.
        # The key is narrowed to the smallest dtype that holds it (NumPy's
        # stable radix sort then does fewer passes), and block coordinates
        # are gathered only at block starts.
        total_blocks = 1
        for size in tensor.shape:
            total_blocks *= -(-size // block)
        if total_blocks <= np.iinfo(np.int64).max:
            key = np.zeros(tensor.nnz, dtype=np.int64)
            for m, size in enumerate(tensor.shape):
                key *= -(-size // block)
                key += coords[:, m] >> shift
            if total_blocks <= np.iinfo(np.int32).max:
                key = key.astype(np.int32)
            order = np.argsort(key, kind="stable")
            key_s = key[order]
            boundary = np.ones(tensor.nnz, dtype=bool)
            np.not_equal(key_s[1:], key_s[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            bidx = coords[order[starts]] >> shift
        else:
            # Key would overflow int64: stable lexsort over the block
            # coordinates induces the identical order without the key.
            blocks = coords >> shift
            order = np.lexsort(
                tuple(blocks[:, m] for m in range(ndim - 1, -1, -1))
            )
            blocks_s = blocks[order]
            boundary = np.ones(tensor.nnz, dtype=bool)
            np.any(blocks_s[1:] != blocks_s[:-1], axis=1, out=boundary[1:])
            starts = np.flatnonzero(boundary)
            bidx = blocks_s[starts]
        bptr = np.append(starts, tensor.nnz).astype(np.int64)
        eidx = coords[order] & (block - 1)
        return cls(tensor.shape, block, bptr, bidx, eidx, tensor.values[order])

    def to_sparse(self) -> SparseTensor:
        coords = np.repeat(
            self.bidx * self.block, np.diff(self.bptr), axis=0
        ) + self.eidx
        return SparseTensor(self.shape, coords, self.vals)

    # ------------------------------------------------------------------
    def storage_bytes(
        self,
        data_width: int = 4,
        block_index_width: int = 4,
        elem_index_width: int = 1,
    ) -> int:
        """HiCOO's storage: wide indices per block, narrow per element.

        Defaults follow the HiCOO paper: 32-bit block coordinates, 8-bit
        element offsets (valid while ``block <= 256``).
        """
        if self.block > (1 << (8 * elem_index_width)):
            raise FormatError("element index width too narrow for block size")
        return (
            self.bptr.shape[0] * 8
            + self.bidx.size * block_index_width
            + self.eidx.size * elem_index_width
            + self.vals.shape[0] * data_width
        )

    def compression_vs_coo(self, data_width: int = 4, index_width: int = 4) -> float:
        """COO bytes / HiCOO bytes (> 1 means HiCOO is smaller)."""
        coo_bytes = self.nnz * (data_width + self.ndim * index_width)
        return coo_bytes / self.storage_bytes(data_width)

    def average_block_occupancy(self) -> float:
        """Mean nonzeros per nonempty block (clustering metric)."""
        if self.num_blocks == 0:
            return 0.0
        return self.nnz / self.num_blocks

    def __repr__(self) -> str:
        return (
            f"HiCOOTensor(shape={self.shape}, block={self.block}, "
            f"nnz={self.nnz}, blocks={self.num_blocks})"
        )
