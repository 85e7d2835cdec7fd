"""Cross-layer fuzz tests: random data pushed from the generators through
the CISS encoder, asserting invariants that hold across the two layers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_tensor


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300), lanes=st.integers(1, 8))
def test_property_ciss_lane_nnz_conservation(seed, lanes):
    """Lanes partition the nonzeros exactly; headers count nonempty slices."""
    from repro.formats import CISSTensor
    from repro.formats.ciss import KIND_HEADER
    t = random_tensor(shape=(15, 8, 6), density=0.25, seed=seed)
    ciss = CISSTensor.from_sparse(t, lanes)
    assert int(ciss.lane_nnz_counts().sum()) == t.nnz
    headers = int(np.count_nonzero(ciss.kinds == KIND_HEADER))
    assert headers == len(t.nonempty_slices(0))
