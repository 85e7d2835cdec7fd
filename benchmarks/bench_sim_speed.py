"""Wall-clock benchmark of the simulator's batched tile pipeline.

Measures four things and records them to ``BENCH_sim.json``:

1. a sparse MTTKRP whose tiling plan produces well over 500 nonempty tiles,
   timed cold (empty encoding cache) and warm (second run, everything
   cached); both reports must equal the digest frozen from the per-tile
   reference engine the batched pipeline replaced;
2. a 5-iteration accelerated CP-ALS run with the encoding cache on vs off
   (best of ``CP_ALS_REPEATS`` alternating runs each) — the 3 MTTKRPs per
   iteration revisit the same (operand, mode) encodings, so iterations
   2..N run almost entirely out of the cache;
3. a 4-point design-space sweep (small enough that the sweep evaluates it
   in-process), checking its ordered ``(params, cycles)`` list against a
   digest frozen when serial and process-pool sweeps both produced it;
4. the wall time of the CISS encoder and the three simulator hot loops
   (PE lanes, event engine, HBM service) on one tile.

Timing isolates the simulator (``compute_output=False``): the functional
reference kernels would only dilute it. The CP-ALS runs are the exception:
ALS needs every MTTKRP's output, so ``cp_als.cached_s`` also times the
functional kernels. Run as
``PYTHONPATH=src python benchmarks/bench_sim_speed.py``.

``--check-baseline`` compares only like with like: it refuses a baseline
measured with a different ``--quick`` setting or on other workload shapes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.factorization.accelerated import accelerated_cp_als
from repro.formats import CISSTensor
from repro.sim import Tensaurus, TensaurusConfig, sweep_configs
from repro.sim.batch import TilePartition
from repro.sim.config import HBM_PRESET
from repro.sim.costs import kernel_costs
from repro.sim.event import EventDrivenTensaurus
from repro.sim.memory import StreamMemory
from repro.sim.pe import PELane
from repro.sim.tiling import make_plan
from repro.tensor import SparseTensor

#: Small SPMs force a fine tiling: (2048/64) * (512/64)^2-ish nonempty
#: tiles, far past the 500-tile mark.
BENCH_CONFIG = TensaurusConfig(spm_kb=2, msu_kb=8)
RANK = 32
#: Timed runs of each CP-ALS leg; the best of each is kept, so one slow
#: run on a noisy host does not move ``cache_hit_speedup``.
CP_ALS_REPEATS = 5

#: sha256 of ``repr(_report_fields(...))`` of the MTTKRP leg per
#: (shape, nnz) size, computed with the per-tile reference engine (every
#: tile CISS-encoded and lane-analyzed on its own, encoding cache off)
#: before it was deleted.
PER_TILE_DIGEST = {
    ((2048, 512, 512), 120_000):
        "f75f018db5f87986216d8b3eeeeaf77a9c6033c683f5f783d42451986c5dcee8",
    ((2048, 384, 384), 60_000):
        "ebe941384783e6d86bc93f22088b18869a8407f1b095d9e6d85747556ef1b863",
}

#: sha256 of ``repr([(params, cycles), ...])`` of the sweep leg, in grid
#: order; serial and 2-worker pooled sweeps both produced it.
SWEEP_DIGEST = (
    "4b7ad8ccff95f0a61c6a87d142843221637516e236743cb754c82e8065739c94"
)


def _report_fields(report):
    return (
        report.cycles,
        report.ops,
        report.tensor_bytes,
        report.matrix_bytes,
        report.output_bytes,
        tuple(sorted(report.detail.items())),
    )


def _fields_digest(report) -> str:
    return hashlib.sha256(repr(_report_fields(report)).encode()).hexdigest()


def _make_tensor(shape, nnz, seed=7):
    rng = np.random.default_rng(seed)
    coords = np.stack([rng.integers(0, s, nnz) for s in shape], axis=1)
    coords = np.unique(coords, axis=0)
    return SparseTensor(shape, coords, rng.standard_normal(coords.shape[0]))


def bench_mttkrp(shape, nnz):
    t = _make_tensor(shape, nnz)
    rng = np.random.default_rng(11)
    b = rng.standard_normal((shape[1], RANK))
    c = rng.standard_normal((shape[2], RANK))
    dims = tuple(t.shape)
    plan = make_plan("mttkrp", BENCH_CONFIG, dims, "buffered", RANK, 0)
    tiles = TilePartition(
        t.coords.T, dims, plan.i_tile, plan.j_tile, plan.k_tile
    ).num_tiles

    batched = Tensaurus(BENCH_CONFIG)
    # Warm numpy/BLAS once on a different mode, then measure cold. Mode 1
    # contracts modes 0 and 2, so its B has shape[0] rows.
    a = rng.standard_normal((shape[0], RANK))
    batched.run_mttkrp(t, a, c, mode=1, compute_output=False)
    batched.clear_cache()
    t0 = time.perf_counter()
    r_cold = batched.run_mttkrp(
        t, b, c, mode=0, msu_mode="buffered", compute_output=False
    )
    cold_s = time.perf_counter() - t0

    cached_s = min(
        _timed(batched.run_mttkrp, t, b, c, mode=0, msu_mode="buffered",
               compute_output=False)[0]
        for _ in range(3)
    )
    r_warm = batched.run_mttkrp(
        t, b, c, mode=0, msu_mode="buffered", compute_output=False
    )

    identical = (
        _fields_digest(r_cold)
        == _fields_digest(r_warm)
        == PER_TILE_DIGEST[(shape, nnz)]
    )
    return {
        "shape": list(shape),
        "nnz": t.nnz,
        "rank": RANK,
        "nonempty_tiles": tiles,
        "batched_cold_s": cold_s,
        "batched_cached_s": cached_s,
        "identical": identical,
        "cycles": r_cold.cycles,
    }


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def bench_cp_als(shape, nnz, num_iters=5):
    """Best of ``CP_ALS_REPEATS`` timings of CP-ALS with the encoding cache
    off and on, the two legs alternating, each on a fresh accelerator."""
    t = _make_tensor(shape, nnz, seed=13)
    configs = {
        "uncached_s": replace(BENCH_CONFIG, encoding_cache_entries=0),
        "cached_s": BENCH_CONFIG,
    }
    best = dict.fromkeys(configs, float("inf"))
    for _ in range(CP_ALS_REPEATS):
        for leg, config in configs.items():
            seconds, run = _timed(
                accelerated_cp_als, t, RANK, num_iters=num_iters, seed=1,
                accelerator=Tensaurus(config),
            )
            best[leg] = min(best[leg], seconds)
    return {
        "shape": list(shape),
        "nnz": t.nnz,
        "rank": RANK,
        "num_iters": num_iters,
        **best,
        "cache_hit_speedup": best["uncached_s"] / best["cached_s"],
        "cache_info": run.cache_info,
    }


def bench_engines():
    """Per-stage hot-loop wall time on one CISS tile.

    Times the format encoder and the three simulator hot loops on the
    same workload, best-of-N each. The residual of a full cold single run
    outside these loops (tiling, planning, tile-stream analysis) is
    reported as ``overhead_s``.
    """
    shape, rank, lanes = (400, 120, 100), 16, 8
    t = _make_tensor(shape, 24_000, seed=11)
    cfg = TensaurusConfig(rows=lanes)
    ciss = CISSTensor.from_sparse(t, lanes)
    costs = kernel_costs("spmttkrp", cfg, fiber_elems=rank)
    rng = np.random.default_rng(0)
    f0 = rng.standard_normal((shape[2], rank))
    f1 = rng.standard_normal((shape[1], rank))
    sim = EventDrivenTensaurus(cfg, costs, f0, f1, 4)
    trace = ciss.pe_address_trace(num_pes=lanes)
    mem = StreamMemory(HBM_PRESET)

    def best(fn, n=3):
        return min(_timed(fn)[0] for _ in range(n))

    def pe_run():
        out = np.zeros((shape[0], rank))
        for lane in range(lanes):
            PELane(costs, f0, f1, 4).run_stream(ciss, lane, out)

    stage_s = {
        "encode": best(lambda: CISSTensor.from_sparse(t, lanes)),
        "pe": best(pe_run),
        "event": best(lambda: sim.run(ciss, (shape[0], rank))),
        "hbm": best(lambda: mem.service_trace(trace)),
    }

    rng2 = np.random.default_rng(21)
    b = rng2.standard_normal((shape[1], rank))
    c = rng2.standard_normal((shape[2], rank))
    acc = Tensaurus(TensaurusConfig())
    cold_s, _ = _timed(
        acc.run_mttkrp, t, b, c, mode=0, compute_output=False
    )
    return {
        "workload": {
            "shape": list(shape), "nnz": t.nnz,
            "lanes": lanes, "rank": rank,
        },
        "stage_s": stage_s,
        "total_s": sum(stage_s.values()),
        "cold_run_s": cold_s,
        "overhead_s": max(cold_s - stage_s["encode"], 0.0),
    }


def _sweep_runner(acc):
    t = _make_tensor((256, 128, 128), 20_000, seed=17)
    rng = np.random.default_rng(19)
    b = rng.standard_normal((128, 16))
    c = rng.standard_normal((128, 16))
    return acc.run_mttkrp(t, b, c, compute_output=False)


def bench_sweep():
    grid = {"rows": [4, 8], "spm_banks": [4, 8]}
    serial_s, points = _timed(
        sweep_configs, BENCH_CONFIG, grid, _sweep_runner
    )
    rows = [(p.params, int(p.report.cycles)) for p in points]
    return {
        "points": len(points),
        "serial_s": serial_s,
        "deterministic": (
            hashlib.sha256(repr(rows).encode()).hexdigest() == SWEEP_DIGEST
        ),
    }


def workload_shapes(results) -> dict:
    """The run size and workload shapes a set of timings was measured on."""
    def pick(section, keys):
        return {k: results.get(section, {}).get(k) for k in keys}

    return {
        "quick": results.get("quick"),
        "mttkrp": pick("mttkrp", ("shape", "nnz", "rank")),
        "cp_als": pick("cp_als", ("shape", "nnz", "rank", "num_iters")),
        "engines": pick("engines", ("workload",)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_sim.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workload (CI smoke run)",
    )
    parser.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="compare against a committed BENCH_sim.json of the same run "
        "size and workload shapes, and fail on a >2x wall-clock regression "
        "of the tracked timings",
    )
    args = parser.parse_args()

    if args.quick:
        mttkrp_shape, mttkrp_nnz = (2048, 384, 384), 60_000
        als_shape, als_nnz = (128, 96, 80), 12_000
    else:
        mttkrp_shape, mttkrp_nnz = (2048, 512, 512), 120_000
        als_shape, als_nnz = (256, 192, 160), 40_000

    results = {
        "config": {"spm_kb": BENCH_CONFIG.spm_kb, "msu_kb": BENCH_CONFIG.msu_kb},
        "quick": args.quick,
        "mttkrp": bench_mttkrp(mttkrp_shape, mttkrp_nnz),
        "cp_als": bench_cp_als(als_shape, als_nnz),
        "sweep": bench_sweep(),
        "engines": bench_engines(),
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    m = results["mttkrp"]
    a = results["cp_als"]
    e = results["engines"]
    print(
        f"MTTKRP {tuple(m['shape'])} nnz={m['nnz']} "
        f"tiles={m['nonempty_tiles']}: batched cold "
        f"{m['batched_cold_s']:.3f}s, cached {m['batched_cached_s']:.4f}s, "
        f"identical={m['identical']}"
    )
    print(
        f"CP-ALS x{a['num_iters']}: uncached {a['uncached_s']:.3f}s, "
        f"cached {a['cached_s']:.3f}s ({a['cache_hit_speedup']:.1f}x), "
        f"cache {a['cache_info']}"
    )
    print(f"sweep: {results['sweep']}")
    for name, seconds in e["stage_s"].items():
        print(f"engine {name:7s} {seconds * 1e3:7.1f}ms")
    print(
        f"engine TOTAL   {e['total_s'] * 1e3:7.1f}ms, "
        f"overhead {e['overhead_s'] * 1e3:.1f}ms"
    )
    print(f"wrote {args.out}")

    ok = (
        m["identical"]
        and m["nonempty_tiles"] >= 500
        and a["cache_hit_speedup"] > 1.0
        and results["sweep"]["deterministic"]
    )
    if not ok:
        print("FAILED acceptance thresholds")
        return 1

    if args.check_baseline:
        baseline = json.loads(Path(args.check_baseline).read_text())
        if workload_shapes(baseline) != workload_shapes(results):
            print(
                f"BASELINE MISMATCH: {args.check_baseline} was measured on "
                f"{workload_shapes(baseline)}, this run on "
                f"{workload_shapes(results)}; refusing to compare"
            )
            return 1
        tracked = [
            ("mttkrp.batched_cold_s", m["batched_cold_s"],
             baseline.get("mttkrp", {}).get("batched_cold_s")),
            ("mttkrp.batched_cached_s", m["batched_cached_s"],
             baseline.get("mttkrp", {}).get("batched_cached_s")),
            ("cp_als.cached_s", a["cached_s"],
             baseline.get("cp_als", {}).get("cached_s")),
            ("engines.total_s", e["total_s"],
             baseline.get("engines", {}).get("total_s")),
        ]
        regressions = [
            f"{label}: {new:.4f}s vs baseline {old:.4f}s"
            for label, new, old in tracked
            if old is not None and new > 2.0 * old
        ]
        if regressions:
            print("PERF REGRESSION vs baseline: " + "; ".join(regressions))
            return 1
        print(f"baseline check OK ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
