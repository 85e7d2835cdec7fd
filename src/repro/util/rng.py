"""Deterministic random number generation helpers.

Every synthetic dataset and randomized test in this repository derives its
randomness from an explicit seed through these helpers so experiments are
reproducible run-to-run.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 0x7E25

#: Scales a 53-bit integer onto [0, 1) (the float64 mantissa width).
_UNIT = 2.0 ** -53


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy Generator seeded deterministically.

    ``None`` maps to the library-wide default seed (not OS entropy): the
    reproduction must be deterministic by default.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def _label_path(base: int, labels: tuple) -> bytes:
    """The ``":"``-joined path that :func:`derive_seed` and :func:`uniform`
    hash."""
    return ":".join([str(base)] + [str(label) for label in labels]).encode()


def derive_seed(base: int, *labels: object) -> int:
    """Derive a stable child seed from a base seed and a label path.

    Used by dataset generators so that e.g. ``("nell-2", "values")`` and
    ``("nell-2", "coords")`` draw from independent streams that do not shift
    when unrelated generators are added.
    """
    digest = hashlib.sha256(_label_path(base, labels)).digest()
    return int.from_bytes(digest[:8], "little")


def uniform(seed: int, *labels: object) -> float:
    """One deterministic uniform in ``[0, 1)`` keyed by a label path.

    A counter-based draw (Salmon et al., "Parallel Random Numbers: As
    Easy as 1, 2, 3", SC'11): the value is a hash of the same label path
    :func:`derive_seed` hashes, so it needs no generator state. It is
    the top 53 bits of an 8-byte blake2b digest, times 2**-53. Use it
    where an event needs one value: it costs about a tenth of
    ``make_rng(derive_seed(...)).random()``, which builds a generator.
    """
    digest = hashlib.blake2b(_label_path(seed, labels), digest_size=8).digest()
    return (int.from_bytes(digest, "little") >> 11) * _UNIT
