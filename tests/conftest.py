"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np
import pytest

from repro.tensor import SparseTensor
from repro.util.rng import make_rng


def random_tensor(
    shape=(12, 9, 7), density=0.2, seed=0, standard=True
) -> SparseTensor:
    """A small random 3-d sparse tensor for unit tests."""
    rng = make_rng(seed)
    total = int(np.prod(shape))
    nnz = max(1, int(total * density))
    lin = rng.choice(total, size=nnz, replace=False)
    coords = np.stack(
        [
            lin // (shape[1] * shape[2]),
            (lin // shape[2]) % shape[1],
            lin % shape[2],
        ],
        axis=1,
    )
    vals = rng.standard_normal(nnz) if standard else rng.random(nnz) + 0.1
    vals[vals == 0.0] = 1.0
    return SparseTensor(shape, coords, vals)


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and plain values (repr).

    Callers pass Python scalars, not numpy ones, so the repr of a part
    does not depend on which integer type a code path happened to return.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


@pytest.fixture
def forced_pool():
    """``with forced_pool():`` makes every sweep inside the block fan out
    over two pool workers, whatever its point count or the CPUs this
    process may use, so pooled paths run the same on any machine."""
    import repro.sim.sweep as sweep_mod

    @contextlib.contextmanager
    def force():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep_mod, "_pool_size", lambda points: 2)
            yield

    return force


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(1234)


@pytest.fixture
def small_tensor() -> SparseTensor:
    return random_tensor()


@pytest.fixture
def paper_tensor() -> SparseTensor:
    """The 4x2x2 example tensor of Fig. 3a."""
    entries = [
        ((0, 0, 0), 1.0),  # a000
        ((0, 1, 1), 2.0),  # a011
        ((1, 1, 1), 3.0),  # a111
        ((2, 0, 0), 4.0),  # a200
        ((2, 0, 1), 5.0),  # a201
        ((3, 1, 0), 6.0),  # a310
    ]
    return SparseTensor.from_entries((4, 2, 2), entries)
