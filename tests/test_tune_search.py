"""End-to-end tests for the auto-tuner: search, determinism, memoization,
registry persistence, and the CLI subcommand."""

import json
import pickle

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.formats import COOMatrix
from repro.sim import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.tune import (
    ConfigSpace,
    TunedRegistry,
    Tuner,
    TuneWorkload,
    exhaustive_search,
    quick_space,
)
from repro.util.errors import ConfigError
from repro.util.rng import make_rng

from tests.conftest import random_tensor


def _workload(seed=7, rank=8):
    t = random_tensor(shape=(40, 30, 20), density=0.1, seed=seed)
    return TuneWorkload.mttkrp(t, rank, name="mttkrp/test")


def _matrix_workload():
    rng = make_rng(9)
    shape = (120, 100)
    nnz = 600
    lin = rng.choice(shape[0] * shape[1], size=nnz, replace=False)
    m = COOMatrix(shape, lin // shape[1], lin % shape[1], rng.random(nnz))
    return TuneWorkload.spmm(m, 16, name="spmm/test")


class TestWorkload:
    def test_fingerprint_content_addressed(self):
        a, b = _workload(), _workload()
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != _workload(rank=16).fingerprint()
        assert a.fingerprint() != _workload(seed=8).fingerprint()

    def test_name_excluded_from_fingerprint(self):
        t = random_tensor(seed=7)
        a = TuneWorkload.mttkrp(t, 8, name="one")
        b = TuneWorkload.mttkrp(t, 8, name="two")
        assert a.fingerprint() == b.fingerprint()

    def test_kernel_operand_mismatch(self):
        with pytest.raises(ConfigError):
            TuneWorkload.spmv(random_tensor(seed=1))
        with pytest.raises(ConfigError):
            TuneWorkload.mttkrp(random_tensor(seed=1), 0)

    def test_runner_matches_direct_run(self):
        wl = _workload()
        report = wl.runner()(Tensaurus())
        assert report.cycles > 0
        assert wl.runner()(Tensaurus()).cycles == report.cycles

    def test_runner_pickle_round_trip(self):
        wl = _workload()
        runner = wl.runner()
        clone = pickle.loads(pickle.dumps(runner))
        assert clone(Tensaurus()).cycles == runner(Tensaurus()).cycles

    def test_stats(self):
        stats = _workload().stats()
        assert stats["kernel"] == "mttkrp"
        assert stats["nnz"] > 0
        assert stats["shape"] == [40, 30, 20]


class TestSearch:
    def _tuner(self, store=None, **kw):
        kw.setdefault("seed", 0)
        kw.setdefault("budget", 8)
        return Tuner(_workload(), quick_space(), store=store, **kw)

    def test_outcome_invariants(self, tmp_path):
        out = self._tuner(ArtifactStore(tmp_path)).search()
        assert out.best_cycles <= out.baseline_cycles
        assert out.improvement >= 0.0
        assert out.oracle_evals == out.budget + 1  # baseline rides along
        assert out.oracle_sims == out.oracle_evals  # cold store
        assert out.rounds[0].kind == "baseline"
        assert out.rounds[1].kind == "bootstrap"
        assert all(r.kind == "refine" for r in out.rounds[2:])
        assert sum(len(r.measurements) for r in out.rounds) == out.oracle_evals
        # The winner really is the measured minimum.
        measured = [
            m.cycles for r in out.rounds for m in r.measurements
        ]
        assert out.best_cycles == min(measured)

    def test_budget_capped_by_space(self, tmp_path):
        out = self._tuner(ArtifactStore(tmp_path), budget=999).search()
        assert out.oracle_evals == len(quick_space()) + 1

    def test_budget_too_small_rejected(self):
        with pytest.raises(ConfigError):
            self._tuner(budget=1)

    def test_cold_runs_bit_identical(self, tmp_path):
        a = self._tuner(ArtifactStore(tmp_path / "a")).search()
        b = self._tuner(ArtifactStore(tmp_path / "b")).search()
        assert a.to_json() == b.to_json()

    def test_seed_changes_trajectory(self, tmp_path):
        a = self._tuner(ArtifactStore(tmp_path / "a"), seed=0).search()
        b = self._tuner(ArtifactStore(tmp_path / "b"), seed=1).search()
        assert a.trajectory_digest() != b.trajectory_digest()

    def test_warm_replay_zero_sims_same_trajectory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = self._tuner(store).search()
        warm = self._tuner(store).search()
        assert warm.oracle_sims == 0
        assert warm.cache_hits == warm.oracle_evals
        assert warm.trajectory_digest() == cold.trajectory_digest()
        assert warm.best_params == cold.best_params
        assert warm.best_cycles == cold.best_cycles

    def test_parallel_workers_same_trajectory(self, tmp_path, forced_pool):
        serial = self._tuner(ArtifactStore(tmp_path / "a")).search()
        with forced_pool():
            parallel = self._tuner(ArtifactStore(tmp_path / "b")).search()
        assert parallel.trajectory_digest() == serial.trajectory_digest()

    def test_measure_hashes_workload_once_per_batch(
        self, tmp_path, monkeypatch
    ):
        calls = []
        digest = TuneWorkload.fingerprint
        monkeypatch.setattr(
            TuneWorkload, "fingerprint",
            lambda wl: calls.append(wl) or digest(wl),
        )
        tuner = self._tuner(ArtifactStore(tmp_path))
        points = quick_space().points()[:4]
        batch = tuner._measure(points, tuner.workload.runner())
        assert [m.source for m in batch] == ["sim"] * 4
        assert len(calls) == 1

    def test_no_store_still_works(self):
        out = self._tuner(store=None).search()
        assert out.oracle_sims == out.oracle_evals

    def test_never_worse_than_baseline(self, tmp_path):
        # A space of strictly-downgraded configs: the tuner must hand back
        # the paper's design, not the least-bad candidate.
        space = ConfigSpace({"rows": (2, 4), "vlen": (1, 2)})
        out = Tuner(
            _workload(), space, seed=0, budget=4,
            store=ArtifactStore(tmp_path),
        ).search()
        assert out.best_params == {}
        assert out.best_cycles == out.baseline_cycles
        assert out.improvement == 0.0

    def test_matrix_kernel_search(self, tmp_path):
        out = Tuner(
            _matrix_workload(), quick_space(), seed=0, budget=6,
            store=ArtifactStore(tmp_path),
        ).search()
        assert out.kernel == "spmm"
        assert out.best_cycles <= out.baseline_cycles

    def test_outcome_json_parses(self, tmp_path):
        out = self._tuner(ArtifactStore(tmp_path)).search()
        payload = json.loads(out.to_json())
        assert payload["workload"] == "mttkrp/test"
        assert payload["best_cycles"] == out.best_cycles
        assert payload["trajectory_digest"] == out.trajectory_digest()
        assert len(payload["rounds"]) == len(out.rounds)


class TestExhaustiveSearch:
    def test_tuned_never_beats_grid(self, tmp_path):
        store = ArtifactStore(tmp_path)
        wl = _workload()
        out = Tuner(wl, quick_space(), seed=0, budget=8, store=store).search()
        best_params, best_cycles, sims = exhaustive_search(
            wl, quick_space(), store=store
        )
        assert best_cycles <= out.best_cycles
        # The grid reuses the tuner's memoized oracle: only the points the
        # search skipped get simulated (the cache keys on the *realized*
        # config, so the in-space paper point aliases with the baseline).
        cached = {
            repr(TensaurusConfig().scaled(**m.params))
            for r in out.rounds
            for m in r.measurements
        }
        expected = sum(
            1
            for p in quick_space().points()
            if repr(TensaurusConfig().scaled(**p)) not in cached
        )
        assert sims == expected
        assert sims <= len(quick_space()) - out.budget


class TestRegistry:
    def test_record_lookup_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        wl = _workload()
        out = Tuner(wl, quick_space(), seed=0, budget=6, store=store).search()
        reg = TunedRegistry(store)
        entry = reg.record(wl, out)
        got = reg.lookup(wl)
        assert got == entry
        assert got.params == out.best_params
        assert got.config() == TensaurusConfig().scaled(**out.best_params)
        assert reg.config_for(wl) == got.config()

    def test_lookup_misses_other_content(self, tmp_path):
        store = ArtifactStore(tmp_path)
        wl = _workload()
        out = Tuner(wl, quick_space(), seed=0, budget=6, store=store).search()
        reg = TunedRegistry(store)
        reg.record(wl, out)
        other = _workload(rank=16)
        assert reg.lookup(other) is None
        assert reg.config_for(other) == TensaurusConfig()

    def test_entries_and_table(self, tmp_path):
        store = ArtifactStore(tmp_path)
        reg = TunedRegistry(store)
        assert reg.entries() == []
        assert "no tuned configs" in reg.as_table()
        wl = _workload()
        out = Tuner(wl, quick_space(), seed=0, budget=6, store=store).search()
        reg.record(wl, out)
        assert len(reg.entries()) == 1
        assert "mttkrp/test" in reg.as_table()


class TestCLI:
    def test_tune_end_to_end(self, tmp_path, capsys):
        rc = main([
            "tune", "spmv", "wiki-Vote", "--quick-space", "--budget", "6",
            "--store-dir", str(tmp_path),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "tuned" in text
        assert "recorded tuned config" in text
        rc = main(["tune", "--list", "--store-dir", str(tmp_path)])
        assert rc == 0
        assert "spmv/wiki-Vote" in capsys.readouterr().out

    def test_tune_out_json(self, tmp_path):
        out_path = tmp_path / "outcome.json"
        rc = main([
            "tune", "spmv", "wiki-Vote", "--quick-space", "--budget", "6",
            "--no-store", "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["kernel"] == "spmv"
        assert payload["best_cycles"] <= payload["baseline_cycles"]

    def test_tune_requires_args(self):
        with pytest.raises(SystemExit):
            main(["tune"])
