"""Unit tests for the encoding cache: hit/miss accounting, LRU eviction,
content-keyed invalidation, and the accelerator/factorization integration."""

import numpy as np
import pytest

from repro.factorization.accelerated import accelerated_cp_als
from repro.sim import EncodingCache, Tensaurus, TensaurusConfig, fingerprint_arrays
from repro.sim import accelerator as accelerator_mod
from repro.util.errors import ConfigError
from repro.util.rng import make_rng

from tests.conftest import random_tensor
from tests.test_perfmodel_agreement import report_fields


def counting_digest():
    """``fingerprint_arrays`` and the list of the calls it answered."""
    hashed = []

    def digest(*arrays):
        hashed.append(len(arrays))
        return fingerprint_arrays(*arrays)

    return digest, hashed


def count_fingerprints(monkeypatch):
    """Record every digest the accelerator computes for an operand."""
    digest, hashed = counting_digest()
    monkeypatch.setattr(accelerator_mod, "fingerprint_arrays", digest)
    return hashed


class TestEncodingCacheUnit:
    def test_miss_then_hit(self):
        cache = EncodingCache(max_entries=4)
        calls = []
        assert cache.get(("k", 1), lambda: calls.append(1) or "a") == "a"
        assert cache.get(("k", 1), lambda: calls.append(2) or "b") == "a"
        assert calls == [1]
        assert cache.info() == {
            "hits": 1, "misses": 1, "entries": 1, "max_entries": 4,
        }

    def test_lru_eviction(self):
        cache = EncodingCache(max_entries=2)
        cache.get(("a",), lambda: 1)
        cache.get(("b",), lambda: 2)
        cache.get(("a",), lambda: -1)  # refresh "a": "b" becomes LRU
        cache.get(("c",), lambda: 3)   # evicts "b"
        assert len(cache) == 2
        assert cache.get(("a",), lambda: -1) == 1
        assert cache.get(("b",), lambda: 20) == 20  # was evicted, rebuilt

    def test_disabled_cache_always_builds(self):
        cache = EncodingCache(max_entries=0)
        assert not cache.enabled
        assert cache.get(("k",), lambda: 1) == 1
        assert cache.get(("k",), lambda: 2) == 2
        assert len(cache) == 0
        assert cache.info()["misses"] == 2

    def test_clear(self):
        cache = EncodingCache(max_entries=4)
        cache.get(("k",), lambda: 1)
        cache.get(("k",), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.info() == {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 4,
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EncodingCache(max_entries=-1)
        with pytest.raises(ConfigError):
            TensaurusConfig(encoding_cache_entries=-1)

    def test_operand_fingerprint_rehashes_only_changed_operands(self):
        cache = EncodingCache(max_entries=4)
        digest, hashed = counting_digest()
        a = np.zeros(4)
        first = cache.operand_fingerprint((a,), digest)
        assert cache.operand_fingerprint((a,), digest) == first
        assert len(hashed) == 1
        # Every edit keeps the array's id.
        a[0] = -0.0  # equal to 0.0 as a float, not in bytes
        signed = cache.operand_fingerprint((a,), digest)
        a.shape = (2, 2)  # same bytes, new shape
        reshaped = cache.operand_fingerprint((a,), digest)
        a.dtype = np.int64  # same bytes, new dtype
        retyped = cache.operand_fingerprint((a,), digest)
        assert len(hashed) == 4
        assert len({first, signed, reshaped, retyped}) == 4
        assert retyped == fingerprint_arrays(a)
        # Not an encoding lookup: one resident entry, no hit or miss.
        assert cache.info() == {
            "hits": 0, "misses": 0, "entries": 1, "max_entries": 4,
        }

    def test_fingerprint_distinguishes_content_shape_dtype(self):
        a = np.arange(6, dtype=np.int64)
        assert fingerprint_arrays(a) == fingerprint_arrays(a.copy())
        assert fingerprint_arrays(a) != fingerprint_arrays(a + 1)
        assert fingerprint_arrays(a) != fingerprint_arrays(a.reshape(2, 3))
        assert fingerprint_arrays(a) != fingerprint_arrays(a.astype(np.int32))


class TestAcceleratorCache:
    def test_rerun_hits_and_matches(self):
        acc = Tensaurus()
        rng = make_rng(7)
        t = random_tensor(shape=(30, 20, 15), density=0.1, seed=3)
        b = rng.random((20, 16))
        c = rng.random((15, 16))
        first = acc.run_mttkrp(t, b, c, compute_output=False)
        after_first = acc.cache_info()
        assert after_first["misses"] > 0 and after_first["hits"] >= 0
        second = acc.run_mttkrp(t, b, c, compute_output=False)
        after_second = acc.cache_info()
        assert report_fields(first) == report_fields(second)
        # The rerun adds no misses: every lookup hits.
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]

    def test_different_operand_does_not_alias(self):
        acc = Tensaurus()
        rng = make_rng(8)
        t1 = random_tensor(shape=(30, 20, 15), density=0.1, seed=4)
        t2 = random_tensor(shape=(30, 20, 15), density=0.1, seed=5)
        b = rng.random((20, 16))
        c = rng.random((15, 16))
        acc.run_mttkrp(t1, b, c, compute_output=False)
        misses_before = acc.cache_info()["misses"]
        r2 = acc.run_mttkrp(t2, b, c, compute_output=False)
        # A structurally different tensor must rebuild, never reuse.
        assert acc.cache_info()["misses"] > misses_before
        fresh = Tensaurus(TensaurusConfig(encoding_cache_entries=0))
        assert report_fields(r2) == report_fields(
            fresh.run_mttkrp(t2, b, c, compute_output=False)
        )

    @pytest.mark.parametrize("field", ["values", "coords"])
    def test_inplace_value_mutation_invalidates(self, field):
        # Staleness: fingerprints cover the coordinate and value arrays, so
        # mutating either in place (same object identity) must miss the
        # cache, never serve the stale encoding.
        acc = Tensaurus()
        rng = make_rng(21)
        t = random_tensor(shape=(30, 20, 15), density=0.1, seed=20)
        b, c = rng.random((20, 8)), rng.random((15, 8))
        acc.run_mttkrp(t, b, c, compute_output=False)
        info = acc.cache_info()
        # The public array is read-only; force the mutation the way buggy
        # caller code could, bypassing the immutability guard.
        arr = getattr(t, field)
        arr.flags.writeable = True
        if field == "values":
            arr[0] *= 2.0
        else:
            # The last nonzero moves to the last cell: still canonical.
            arr[-1] = np.array(t.shape) - 1
        arr.flags.writeable = False
        acc.run_mttkrp(t, b, c, compute_output=False)
        assert acc.cache_info()["misses"] > info["misses"]

    def test_inplace_matrix_value_mutation_invalidates(self):
        from repro.formats import COOMatrix
        from repro.formats.csr import CSRMatrix

        acc = Tensaurus()
        rng = make_rng(22)
        dense = (rng.random((24, 18)) < 0.3) * (rng.random((24, 18)) + 0.1)
        coo = COOMatrix.from_dense(dense)
        b = rng.random((18, 8))
        acc.run_spmm(CSRMatrix.from_coo(coo), b, compute_output=False)
        info = acc.cache_info()
        coo.vals[0] *= 2.0
        acc.run_spmm(CSRMatrix.from_coo(coo), b, compute_output=False)
        assert acc.cache_info()["misses"] > info["misses"]

    def test_cache_disabled_reports_identical(self):
        rng = make_rng(9)
        t = random_tensor(shape=(30, 20, 15), density=0.1, seed=6)
        b = rng.random((20, 16))
        c = rng.random((15, 16))
        cached = Tensaurus()
        uncached = Tensaurus(TensaurusConfig(encoding_cache_entries=0))
        a = cached.run_mttkrp(t, b, c, compute_output=False)
        r = uncached.run_mttkrp(t, b, c, compute_output=False)
        assert report_fields(a) == report_fields(r)
        assert len(uncached.cache) == 0

    def test_clear_cache(self):
        acc = Tensaurus()
        rng = make_rng(10)
        t = random_tensor(shape=(20, 15, 10), density=0.15, seed=7)
        acc.run_mttkrp(t, rng.random((15, 8)), rng.random((10, 8)),
                       compute_output=False)
        assert len(acc.cache) > 0
        acc.clear_cache()
        assert acc.cache_info() == {
            "hits": 0, "misses": 0, "entries": 0,
            "max_entries": acc.config.encoding_cache_entries,
        }

    def test_clear_cache_hashes_again(self, monkeypatch):
        hashed = count_fingerprints(monkeypatch)
        acc = Tensaurus()
        rng = make_rng(12)
        t = random_tensor(shape=(20, 15, 10), density=0.15, seed=8)
        b, c = rng.random((15, 8)), rng.random((10, 8))
        for _ in range(2):
            acc.run_mttkrp(t, b, c, compute_output=False)
        assert len(hashed) == 1
        acc.clear_cache()
        acc.run_mttkrp(t, b, c, compute_output=False)
        assert len(hashed) == 2

    def test_eviction_bounds_residency(self):
        acc = Tensaurus(TensaurusConfig(encoding_cache_entries=2))
        rng = make_rng(11)
        for seed in range(4):
            t = random_tensor(shape=(20, 15, 10), density=0.15, seed=seed)
            acc.run_mttkrp(t, rng.random((15, 8)), rng.random((10, 8)),
                           compute_output=False)
        assert len(acc.cache) <= 2


class TestFactorizationCacheInfo:
    def test_cp_als_hashes_its_operand_once(self, monkeypatch):
        hashed = count_fingerprints(monkeypatch)
        t = random_tensor(shape=(25, 20, 15), density=0.1, seed=12)
        run = accelerated_cp_als(t, rank=6, num_iters=3, seed=1)
        assert len(run.reports) == 9
        assert len(hashed) == 1

    def test_cp_als_reuses_encodings(self):
        t = random_tensor(shape=(25, 20, 15), density=0.1, seed=12)
        run = accelerated_cp_als(t, rank=6, num_iters=3, seed=1)
        assert len(run.reports) == 9  # 3 modes x 3 iterations
        # Iterations 2-3 revisit the same (operand, mode) encodings.
        assert run.cache_info["hits"] > 0
        assert run.cache_info["misses"] > 0
        assert run.cache_info["hits"] > run.cache_info["misses"]
