"""Failure-injection tests: corrupted streams and inconsistent state must be
detected, not silently mis-executed.

A storage format or a driver that silently accepts corrupted input produces
wrong numbers downstream; these tests flip kinds/values/indices in encoded
streams and feed malformed programs to the device, asserting every
corruption either raises a library error or is provably harmless.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.formats import CISSMatrix, CISSTensor, COOMatrix, KIND_HEADER, KIND_NNZ
from repro.formats.ciss import KIND_PAD
from repro.sim.config import TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.event import EventDrivenTensaurus
from repro.sim.pe import PELane
from repro.formats.ciss import LaneRecord
from repro.util.errors import FormatError, ShapeError, SimulationError
from repro.util.errors import ReproError

from tests.conftest import random_tensor


def corrupted(ciss, **plane_edits):
    """Rebuild a CISSTensor with edited planes (constructor re-validates)."""
    kinds = ciss.kinds.copy()
    a_idx = ciss.a_idx.copy()
    k_idx = ciss.k_idx.copy()
    vals = ciss.vals.copy()
    for plane, edits in plane_edits.items():
        target = {"kinds": kinds, "a": a_idx, "k": k_idx, "vals": vals}[plane]
        for pos, value in edits:
            target[pos] = value
    return CISSTensor(ciss.shape, ciss.num_lanes, kinds, a_idx, k_idx, vals,
                      mode=ciss.mode)


class TestCorruptedCISS:
    @pytest.fixture
    def ciss(self):
        return CISSTensor.from_sparse(random_tensor(seed=99), 4)

    def _first(self, ciss, kind):
        pos = np.argwhere(ciss.kinds == kind)
        return tuple(pos[0])

    def test_header_with_value_rejected(self, ciss):
        pos = self._first(ciss, KIND_HEADER)
        with pytest.raises(FormatError):
            corrupted(ciss, vals=[(pos, 3.0)])

    def test_nnz_with_zero_value_rejected(self, ciss):
        pos = self._first(ciss, KIND_NNZ)
        with pytest.raises(FormatError):
            corrupted(ciss, vals=[(pos, 0.0)])

    def test_leading_nnz_without_header_rejected_at_decode(self, ciss):
        # Turn the first header into padding: the lane now starts with a
        # nonzero record and the decoder must refuse.
        pos = self._first(ciss, KIND_HEADER)
        broken = corrupted(ciss, kinds=[(pos, KIND_PAD)])
        with pytest.raises(FormatError):
            broken.to_sparse()

    def test_out_of_range_slice_detected_at_decode(self, ciss):
        pos = self._first(ciss, KIND_HEADER)
        broken = corrupted(ciss, a=[(pos, 10_000)])
        with pytest.raises(ReproError):
            broken.to_sparse()

    def test_pe_lane_rejects_headerless_stream(self, rng):
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=4)
        pe = PELane(costs, fiber0=rng.random((4, 4)), fiber1=rng.random((4, 4)))
        stream = [LaneRecord(KIND_NNZ, 0, 0, 1.0)]
        with pytest.raises(SimulationError):
            pe.run(stream, np.zeros((4, 4)))

    def test_pe_lane_rejects_unknown_kind(self, rng):
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=4)
        pe = PELane(costs, fiber0=rng.random((4, 4)), fiber1=rng.random((4, 4)))
        stream = [LaneRecord(KIND_HEADER, 0, -1, 0.0), LaneRecord(7, 0, 0, 1.0)]
        with pytest.raises(SimulationError):
            pe.run(stream, np.zeros((4, 4)))

    def test_event_engine_rejects_headerless_stream(self, rng):
        from repro.tensor import SparseTensor
        t = SparseTensor.from_entries((2, 2, 2), [((0, 0, 0), 1.0)])
        ciss = CISSTensor.from_sparse(t, 1)
        broken = corrupted(ciss, kinds=[((0, 0), KIND_PAD)])
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=2)
        engine = EventDrivenTensaurus(
            TensaurusConfig(), costs,
            fiber0=rng.random((2, 2)), fiber1=rng.random((2, 2)),
        )
        with pytest.raises(SimulationError):
            engine.run(broken, (2, 2))

    def _event_engine(self, rng):
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=2)
        return EventDrivenTensaurus(
            TensaurusConfig(), costs,
            fiber0=rng.random((2, 2)), fiber1=rng.random((2, 2)),
        )

    def test_event_engine_rejects_slice_on_two_lanes(self, rng):
        # Hand-built planes heading slice 0 on both lanes: the two lanes
        # would drain into one output row concurrently.
        shared = CISSTensor(
            (2, 2, 2), 2,
            kinds=[[KIND_HEADER, KIND_HEADER], [KIND_NNZ, KIND_NNZ]],
            a_idx=[[0, 0], [0, 1]],
            k_idx=[[-1, -1], [0, 1]],
            vals=[[0.0, 0.0], [1.0, 2.0]],
        )
        with pytest.raises(SimulationError, match="slice 0"):
            self._event_engine(rng).run(shared, (2, 2))

    def test_event_engine_rejects_entries_without_lanes(self, rng):
        planes = SimpleNamespace(
            kinds=np.zeros((3, 0), dtype=np.uint8),
            a_idx=np.zeros((3, 0), dtype=np.int64),
            k_idx=np.zeros((3, 0), dtype=np.int64),
            vals=np.zeros((3, 0)),
        )
        with pytest.raises(SimulationError, match="no lanes"):
            self._event_engine(rng).run(planes, (2, 2))


class TestCorruptedMatrixStreams:
    def test_cisr_length_metadata_corruption(self, rng):
        from repro.formats import CISRMatrix
        dense = (rng.random((8, 8)) < 0.5) * (rng.random((8, 8)) + 0.1)
        cisr = CISRMatrix.from_coo(COOMatrix.from_dense(dense), 2)
        # Inflate one row length so decode walks into padding.
        if cisr.row_lengths[0]:
            cisr.row_lengths[0][-1] += 10_000
            with pytest.raises((FormatError, IndexError)):
                cisr.to_coo()

    def test_ciss_matrix_shape_mismatch(self, rng):
        dense = (rng.random((6, 6)) < 0.5) * (rng.random((6, 6)) + 0.1)
        ciss = CISSMatrix.from_coo(COOMatrix.from_dense(dense), 2)
        with pytest.raises(FormatError):
            CISSMatrix(
                (6, 6), 2, ciss.kinds[:1], ciss.a_idx, ciss.k_idx, ciss.vals
            )


class TestDecodersAreTotal:
    """Silent-corruption check: value flips that stay *format-valid* must
    decode without raising and differ only in the flipped value."""

    def test_value_flip_is_localized(self):
        t = random_tensor(seed=101)
        ciss = CISSTensor.from_sparse(t, 4)
        pos = tuple(np.argwhere(ciss.kinds == KIND_NNZ)[3])
        flipped = corrupted(ciss, vals=[(pos, 123.456)])
        a, b = ciss.to_sparse(), flipped.to_sparse()
        diff = np.abs(a.to_dense() - b.to_dense())
        assert np.count_nonzero(diff) == 1

    def test_index_flip_moves_one_entry(self):
        t = random_tensor(seed=102)
        ciss = CISSTensor.from_sparse(t, 4)
        pos = tuple(np.argwhere(ciss.kinds == KIND_NNZ)[0])
        new_k = (int(ciss.k_idx[pos]) + 1) % t.shape[2]
        flipped = corrupted(ciss, k=[(pos, new_k)])
        decoded = flipped.to_sparse()
        # Same nonzero budget, different support.
        assert abs(decoded.nnz - t.nnz) <= 1
        assert decoded != t
