"""Tests for the on-disk artifact store and the memoized accelerator.

The store backs the figure-regeneration pipeline in ``benchmarks/``: a warm
cache must replay byte-equal artifacts, a cold or disabled store must
rebuild, and corruption must degrade to a rebuild rather than an error.
"""

import pickle

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactStore,
    MemoizedTensaurus,
    default_artifact_root,
    fingerprint_value,
)
from repro.baselines import matrix_workload, tensor_workload
from repro.datasets.generators import graph_matrix, random_sparse_tensor
from repro.formats.csr import CSRMatrix
from repro.sim import Tensaurus
from repro.sim.faults import FaultPlan
from repro.util.errors import FaultError
from repro.util.rng import make_rng


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(root=tmp_path / "artifacts")


# ---------------------------------------------------------------- store


def test_round_trip_and_counters(store):
    builds = []

    def build():
        builds.append(1)
        return {"coords": np.arange(12).reshape(3, 4), "tag": "x"}

    first = store.get("dataset", ("demo", 1), build)
    again = store.get("dataset", ("demo", 1), build)
    assert len(builds) == 1
    assert first["tag"] == again["tag"]
    assert np.array_equal(first["coords"], again["coords"])
    assert store.hits == 1 and store.misses == 1
    assert store.bytes_written > 0 and store.bytes_read > 0
    assert store.entry_count() == 1
    assert store.total_bytes() > 0
    assert "1 hits" in store.report_line()


def test_distinct_keys_do_not_alias(store):
    a = store.get("dataset", ("k", np.zeros(4)), lambda: "zeros")
    b = store.get("dataset", ("k", np.ones(4)), lambda: "ones")
    assert (a, b) == ("zeros", "ones")
    assert store.misses == 2 and store.hits == 0


def test_disabled_store_always_rebuilds(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=False)
    calls = []
    for _ in range(2):
        store.get("dataset", ("k",), lambda: calls.append(1))
    assert len(calls) == 2
    assert store.misses == 2 and store.hits == 0
    assert store.entry_count() == 0  # nothing touched disk
    assert "(disabled)" in store.report_line()


def test_clear_removes_entries(store):
    store.get("a", (1,), lambda: "x")
    store.get("b", (2,), lambda: "y")
    assert store.clear() == 2
    assert store.entry_count() == 0
    # Next get is a rebuild, not a stale hit.
    assert store.get("a", (1,), lambda: "rebuilt") == "rebuilt"


def test_corrupt_entry_is_rebuilt(store):
    store.get("dataset", ("k",), lambda: [1, 2, 3])
    path = store.path_for("dataset", ("k",))
    path.write_bytes(b"\x80garbage not a pickle")
    value = store.get("dataset", ("k",), lambda: [4, 5, 6])
    assert value == [4, 5, 6]
    assert store.read_errors == 1
    # The rebuild repaired the entry on disk.
    assert pickle.loads(path.read_bytes()) == [4, 5, 6]


def test_unpicklable_artifact_not_persisted(store):
    value = store.get("dataset", ("gen",), lambda: (x for x in range(3)))
    assert list(value) == [0, 1, 2]
    assert store.entry_count() == 0


def test_default_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "elsewhere"))
    assert default_artifact_root() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_ARTIFACTS_DIR")
    assert str(default_artifact_root()).endswith(".artifacts")


# ---------------------------------------------------------------- keys


def test_fingerprint_distinguishes_types_and_contents():
    seen = {
        fingerprint_value(None),
        fingerprint_value(0),
        fingerprint_value(False),
        fingerprint_value(""),
        fingerprint_value(b""),
        fingerprint_value([]),
        fingerprint_value({}),
        fingerprint_value(np.zeros(3)),
        fingerprint_value(np.zeros((3, 1))),
        fingerprint_value(np.zeros(3, dtype=np.int64)),
        fingerprint_value("a", "b"),
        fingerprint_value("ab"),
    }
    assert len(seen) == 12


def test_fingerprint_stable_across_calls():
    tensor = random_sparse_tensor((10, 8, 6), 50, seed=1)
    assert fingerprint_value(tensor) == fingerprint_value(tensor)
    other = random_sparse_tensor((10, 8, 6), 50, seed=2)
    assert fingerprint_value(tensor) != fingerprint_value(other)
    coo = graph_matrix(20, 60, seed=3)
    assert fingerprint_value(coo) == fingerprint_value(coo)
    csr = CSRMatrix.from_coo(coo)
    assert fingerprint_value(csr) == fingerprint_value(csr)
    assert fingerprint_value(csr) != fingerprint_value(coo)


# ---------------------------------------------------------------- memoization


def small_case():
    tensor = random_sparse_tensor((16, 12, 10), 200, seed=4)
    rng = make_rng(5)
    return tensor, rng.random((12, 4)), rng.random((10, 4))


def test_memoized_accelerator_replays_identical_report(store):
    tensor, b, c = small_case()
    acc = MemoizedTensaurus(Tensaurus(), store)
    live = acc.run_mttkrp(tensor, b, c)
    assert store.misses == 1 and store.hits == 0
    cached = acc.run_mttkrp(tensor, b, c)
    assert store.hits == 1
    assert cached.cycles == live.cycles
    assert cached.kernel == live.kernel
    assert np.array_equal(cached.output, live.output)
    # Different arguments are different keys.
    acc.run_mttkrp(tensor, b, c, mode=0, compute_output=False)
    assert store.misses == 2


def test_memoized_accelerator_passes_through_attrs(store):
    acc = MemoizedTensaurus(Tensaurus(), store)
    assert acc.config is acc.inner.config
    assert acc.store is store


def test_fault_plans_bypass_the_cache(store):
    tensor, b, c = small_case()
    plan = FaultPlan(spm_bitflip_rate=1e-4)
    acc = MemoizedTensaurus(Tensaurus(fault_plan=plan), store)
    acc.run_mttkrp(tensor, b, c)
    acc.run_mttkrp(tensor, b, c)
    assert store.hits == 0 and store.misses == 0


@pytest.mark.parametrize("plan", [
    FaultPlan(),
    FaultPlan(forced_shard_kills=((0, 0.5),)),
    FaultPlan(seed=2, launch_abort_rate=0.3),
])
def test_launch_level_plans_replay_through_the_cache(store, plan):
    tensor, b, c = small_case()
    acc = MemoizedTensaurus(Tensaurus(fault_plan=plan), store)
    twin = Tensaurus(fault_plan=plan)

    def outcome(accelerator):
        try:
            r = accelerator.run_mttkrp(tensor, b, c)
        except FaultError as exc:
            return str(exc)
        return (r.cycles, r.detail, r.faults, r.fault_events,
                r.output.tobytes())

    got = [outcome(acc) for _ in range(12)]
    assert got == [outcome(twin) for _ in range(12)]
    assert acc.fault_state.runs == twin.fault_state.runs
    # Every launch after the first clean one loads its stored report.
    stored_at = next(i for i, o in enumerate(got) if not isinstance(o, str))
    assert store.misses == 1 and store.hits == 11 - stored_at


# ---------------------------------------------------------------- baselines


def test_workload_scans_memoized(store):
    tensor, _, _ = small_case()
    stats = tensor_workload("mttkrp", tensor, 4, store=store)
    again = tensor_workload("mttkrp", tensor, 4, store=store)
    assert store.hits == 1 and store.misses == 1
    assert stats == again
    uncached = tensor_workload("mttkrp", tensor, 4)
    assert stats == uncached

    csr_source = graph_matrix(24, 80, seed=6)
    mstats = matrix_workload("spmm", csr_source, 8, store=store)
    assert matrix_workload("spmm", csr_source, 8, store=store) == mstats
    assert store.hits == 2


# ------------------------------------------------------------ put / load


def test_put_then_load_round_trip(store):
    value = {"factors": np.arange(6.0).reshape(2, 3), "iteration": 4}
    path = store.put("checkpoints", ("run-x", 4), value)
    assert path is not None and path.exists()
    loaded = store.load("checkpoints", ("run-x", 4))
    assert loaded["iteration"] == 4
    assert np.array_equal(loaded["factors"], value["factors"])
    assert store.hits == 1


def test_load_miss_returns_default(store):
    sentinel = object()
    assert store.load("checkpoints", ("nope", 0), default=sentinel) is sentinel
    assert store.read_errors == 0


def test_load_corrupt_counts_read_error(store):
    store.put("checkpoints", ("run-y", 0), [1, 2, 3])
    path = store.path_for("checkpoints", ("run-y", 0))
    path.write_bytes(b"\x80garbage")
    assert store.load("checkpoints", ("run-y", 0), default="fallback") == \
        "fallback"
    assert store.read_errors == 1


def test_disabled_store_put_load_are_noops(tmp_path):
    store = ArtifactStore(root=tmp_path / "off", enabled=False)
    assert store.put("ns", ("k",), 42) is None
    assert store.load("ns", ("k",), default="d") == "d"
    assert not (tmp_path / "off").exists()


def test_put_unpicklable_returns_none(store):
    assert store.put("ns", ("bad",), lambda: None) is None


# ------------------------------------------------------------ index


def _recover_payload(path, value):
    if isinstance(value, dict) and "key" in value:
        return value["key"], {"n": value.get("n", 0)}
    return None


def test_write_then_read_index_round_trip(store):
    entries = {"case-a": {"n": 1}, "case-b": {"n": 2}}
    path = store.write_index("ns", entries)
    assert path is not None and path.name == "index.json"
    assert store.read_index("ns") == entries


def test_read_index_missing_returns_empty(store):
    assert store.read_index("never-written") == {}


def test_truncated_index_detected_and_rebuilt(store):
    store.put("ns", ("case-a",), {"key": "case-a", "n": 1})
    store.put("ns", ("case-b",), {"key": "case-b", "n": 2})
    store.write_index("ns", {"case-a": {"n": 1}, "case-b": {"n": 2}})
    store.index_path("ns").write_text('{"case-a": {"n": 1}, "case')
    rebuilt = store.read_index("ns", recover=_recover_payload)
    assert rebuilt == {"case-a": {"n": 1}, "case-b": {"n": 2}}
    assert store.read_errors == 1
    # The rebuilt index was written back: the next read is clean.
    assert store.read_index("ns") == rebuilt


def test_non_object_index_root_is_treated_as_corrupt(store):
    store.put("ns", ("case-a",), {"key": "case-a", "n": 1})
    store.index_path("ns").parent.mkdir(parents=True, exist_ok=True)
    store.index_path("ns").write_text('["not", "an", "object"]')
    assert store.read_index("ns", recover=_recover_payload) == {
        "case-a": {"n": 1}
    }
    assert store.read_errors == 1


def test_corrupt_index_without_recover_degrades_to_empty(store):
    store.write_index("ns", {"case-a": {"n": 1}})
    store.index_path("ns").write_text("{{{")
    assert store.read_index("ns") == {}
    assert store.read_errors == 1


def test_missing_index_with_blobs_rebuilds_via_recover(store):
    store.put("ns", ("case-a",), {"key": "case-a", "n": 5})
    assert not store.index_path("ns").exists()
    assert store.read_index("ns", recover=_recover_payload) == {
        "case-a": {"n": 5}
    }
    assert store.index_path("ns").exists()


def test_unreadable_blob_skipped_during_rebuild(store):
    store.put("ns", ("case-a",), {"key": "case-a", "n": 1})
    store.put("ns", ("case-b",), {"key": "case-b", "n": 2})
    store.path_for("ns", ("case-b",)).write_bytes(b"\x80torn")
    store.index_path("ns").write_text("oops")
    rebuilt = store.read_index("ns", recover=_recover_payload)
    assert rebuilt == {"case-a": {"n": 1}}
    assert store.read_errors == 2  # bad index + bad blob


def test_disabled_store_index_is_noop(tmp_path):
    store = ArtifactStore(root=tmp_path / "off", enabled=False)
    assert store.write_index("ns", {"a": {}}) is None
    assert store.read_index("ns") == {}
