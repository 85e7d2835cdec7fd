"""Frozen digests of the factored sparse tensor kernels and their launches.

The constants were computed before the accelerator learned to cache one
fiber plan per (operand, mode), before the OSR scatter became a
per-column ``np.bincount``, and before the kernels went row-major (one
row gather of ``C`` and of ``B``, one flat ``np.bincount`` per OSR). A
match proves all three changes are exact:

- ``KERNEL_GOLDEN`` hashes the output bytes of ``mttkrp_sparse_factored``
  and ``ttmc_sparse_factored`` for every mode of two seeded Zipf-skewed
  tensors whose slices hold many multi-nonzero fibers, with signed values
  so any reassociation of a sum changes the bytes;
- ``LAUNCH_GOLDEN`` hashes every timing-facing report field (cycles, ops,
  per-stream bytes, ``detail``) plus the output bytes of ``run_mttkrp`` /
  ``run_ttmc`` over all modes and both MSU choices, with tiles small
  enough that each launch spans many of them. The deleted per-tile
  engine reproduced the same two digests; the keys keep their
  ``batched/`` prefix.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.generators import random_sparse_tensor
from repro.kernels import mttkrp_sparse_factored, ttmc_sparse_factored
from repro.sim import Tensaurus, TensaurusConfig
from repro.util.rng import make_rng

#: name -> (shape, nnz, Zipf skew of slice sizes, seed)
TENSORS = {
    "wide": ((300, 120, 100), 6000, 1.1, 3),
    "deep": ((64, 48, 220), 7000, 1.3, 11),
}
RANK = 8
#: TTMc ranks (F1, F2): unequal so a transposed outer product shows
TTMC_RANKS = (5, 7)

KERNEL_GOLDEN = {
    "mttkrp/wide/0": "a72aac3f6b9d92d4ac447b03c049623d1cb5f63e10c3350396d49540c8a0ceb1",
    "mttkrp/wide/1": "836bb984302ebc3ee49c9eb530a800c573ca40eb6b804e896f6d835021552013",
    "mttkrp/wide/2": "dfae04c657f85ebffedc60d43b6dea827dada9f7efd4bf824d4f31d71b753c6c",
    "mttkrp/deep/0": "f54c5f395e35bbe5f7483ae7e38fc7e32c71fed816d14e4ca6551e814382ec62",
    "mttkrp/deep/1": "61f5ffe045dfbbc8469a2b035ed81c1bb112ace037fe64365b948802578e65c5",
    "mttkrp/deep/2": "02a213ac1db3d38a3bfaae073bc7d5a0233d81892c1b3ae14bffc73fb42084b0",
    "ttmc/wide/0": "2e563410151d4deac92be95d7e5c3a22fc26ab093f83616e30928c440f59db7c",
    "ttmc/wide/1": "7d51e004e9eb44e48144f40fb97038c2d8e84915c86937187e703583058febb2",
    "ttmc/wide/2": "48b3e362992fb388c2c2e1bae7c7676a374a88d22702f9d591c7271b36e6afd5",
    "ttmc/deep/0": "d08e7377e64ff84e97325b38c94a4532fd1fb89f11c200a211dbab2c98c115f7",
    "ttmc/deep/1": "87926d8edd7a25667c7e3892bd7d82158cf9552db3c2f7118782879528cb5a87",
    "ttmc/deep/2": "c3aa117103908524054963d8233fc22e38fa1041f350e0e37a15e2717725dcee",
}

LAUNCH_GOLDEN = {
    "batched/wide": "b3dccfe4f6d18bca9115f7e84c5cce94a1e53e95f5a1844da9975fed966f0d28",
    "batched/deep": "88d758a602a08a4778afd1e868add26dfb55d46f6844fb4ab3c8f56d5c60015d",
}


def tensor(name: str):
    shape, nnz, skew, seed = TENSORS[name]
    return random_sparse_tensor(shape, nnz, skew=skew, seed=seed)


def factors(name: str, mode: int, ranks):
    """The two seeded factor matrices of one (tensor, mode) case."""
    shape, _, _, seed = TENSORS[name]
    rest = [m for m in range(3) if m != mode]
    rng = make_rng(seed * 10 + mode)
    return [rng.standard_normal((shape[m], r)) for m, r in zip(rest, ranks)]


def array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def launch_rows(acc: Tensaurus, name: str):
    """Every report field of all (kernel, mode, MSU) launches of a tensor."""
    t = tensor(name)
    rows = []
    for mode in range(3):
        b, c = factors(name, mode, (RANK, RANK))
        b2, c2 = factors(name, mode, TTMC_RANKS)
        for msu in ("auto", "direct"):
            for report in (
                acc.run_mttkrp(t, b, c, mode=mode, msu_mode=msu),
                acc.run_ttmc(t, b2, c2, mode=mode, msu_mode=msu),
            ):
                rows.append((
                    report.kernel, mode, msu, report.cycles, report.ops,
                    report.tensor_bytes, report.matrix_bytes,
                    report.output_bytes, sorted(report.detail.items()),
                    array_digest(report.output),
                ))
    return rows


@pytest.mark.parametrize("key", sorted(KERNEL_GOLDEN))
def test_factored_kernel_output_bytes(key):
    kernel, name, mode = key.split("/")
    mode = int(mode)
    if kernel == "mttkrp":
        out = mttkrp_sparse_factored(
            tensor(name), factors(name, mode, (RANK, RANK)), mode
        )
    else:
        out = ttmc_sparse_factored(
            tensor(name), factors(name, mode, TTMC_RANKS), mode
        )
    assert array_digest(out) == KERNEL_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(LAUNCH_GOLDEN))
def test_launch_report_fields(key):
    _, name = key.split("/")
    acc = Tensaurus(TensaurusConfig(spm_kb=2, msu_kb=8))
    rows = launch_rows(acc, name)
    got = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert got == LAUNCH_GOLDEN[key]
    # A warm accelerator (every encoding cached) reports the same bytes.
    assert launch_rows(acc, name) == rows
