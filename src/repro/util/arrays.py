"""Distinct-value counts by sorting.

numpy 2.4's ``np.unique`` answers a plain call on an integer array from
a hash table, which on this package's index arrays (a few hundred to a
few hundred thousand int64 keys) runs 4-20x slower than a sort plus an
adjacent compare. The package counts and segments distinct keys with
these two helpers instead, so there is one way to do it. Values compare
with ``!=``, so they suit integer keys (a NaN would never equal itself).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def count_distinct(a: np.ndarray) -> int:
    """Number of distinct values of the 1-d array ``a``."""
    if a.shape[0] == 0:
        return 0
    s = np.sort(a)
    return int(np.count_nonzero(s[1:] != s[:-1])) + 1


def sorted_distinct(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted 1-d array ``a`` and the index of
    each one's first occurrence, as ``np.unique(a, return_index=True)``
    returns them, in one O(n) compare and no sort."""
    head = np.empty(a.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    first = np.flatnonzero(head)
    return a[first], first
