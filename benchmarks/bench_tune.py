"""Auto-tuner benchmark: tuned configs vs the paper's fixed design.

For each of the four core kernels on its headline dataset, runs the
budgeted learned-cost-model search (:class:`repro.tune.Tuner`) over the
standard design space and compares the winner against:

1. **the paper's fixed design point** — the gate requires a >=10% cycle
   reduction on at least 3 of the 4 kernels (per-workload tuning is the
   point of the tuner);
2. **the exhaustive grid optimum** — measured through the same memoized
   oracle, so the grid pass only simulates the points the search skipped.
   Gates: the tuned config matches the grid optimum on every kernel, and
   the cold search spends >=5x fewer simulator runs than the grid would
   (``space+1`` points).

Determinism gates: two cold searches with the same seed produce
bit-identical outcome JSON, and a warm replay against the first search's
oracle cache runs **zero** simulations while reproducing the same
trajectory digest.

``--check-baseline`` re-runs the benchmark and compares against the
committed ``BENCH_tune.json``: every boolean gate must still hold,
per-kernel tuned cycles must not regress past the tolerance band, and
each kernel's trajectory digest, oracle simulations and extra grid
simulations must equal the committed ones (same run size only; a
``--smoke`` run checked against a full baseline verifies gates only).

Run as ``PYTHONPATH=src python benchmarks/bench_tune.py`` (add
``--smoke`` for the short CI workload).
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.artifacts import ArtifactStore
from repro.tune import (
    Tuner,
    default_space,
    exhaustive_search,
    quick_space,
    workload_from_dataset,
)

SEED = 0
FULL_BUDGET = 40
SMOKE_BUDGET = 8
#: Gate floors.
IMPROVEMENT_FLOOR = 0.10
IMPROVED_KERNELS_FLOOR = 3
ORACLE_SAVINGS_FLOOR = 5.0
#: Smoke runs search half of a 16-point space (budget 8 of 17 oracle
#: points), so >=5x savings is structurally impossible there; the smoke
#: gate only checks the search is cheaper than the grid at all.
SMOKE_SAVINGS_FLOOR = 1.5
#: --check-baseline tolerance: tuned cycles may exceed the committed
#: baseline by at most this factor (the sims are deterministic, so any
#: drift here means a model change, not noise).
CYCLES_REGRESSION_BAND = 1.02
#: --check-baseline fields compared exactly with the committed baseline of
#: the same run size: the search trajectory and its oracle spend.
EXACT_FIELDS = ("trajectory_digest", "oracle_sims", "grid_extra_sims")

#: (label, kernel, dataset, rank) — the paper's headline workloads.
WORKLOADS = (
    ("mttkrp/nell-2", "mttkrp", "nell-2", 32),
    ("ttmc/poisson3D", "ttmc", "poisson3D", 32),
    ("spmm/cora", "spmm", "cora", 128),
    ("spmv/wiki-Vote", "spmv", "wiki-Vote", 32),
)


def _space(smoke: bool):
    return quick_space() if smoke else default_space()


def bench_one(label: str, kernel: str, dataset: str, rank: int,
              smoke: bool, data_store: ArtifactStore) -> dict:
    workload = workload_from_dataset(
        kernel, dataset, rank=rank, store=data_store
    )
    budget = SMOKE_BUDGET if smoke else FULL_BUDGET

    def tuner(store):
        return Tuner(
            workload, _space(smoke), seed=SEED, budget=budget, store=store
        )

    with tempfile.TemporaryDirectory() as tmp_a, \
            tempfile.TemporaryDirectory() as tmp_b:
        store_a = ArtifactStore(tmp_a)
        cold = tuner(store_a).search()
        cold_again = tuner(ArtifactStore(tmp_b)).search()
        warm = tuner(store_a).search()
        grid_params, grid_cycles, grid_sims = exhaustive_search(
            workload, _space(smoke), store=store_a
        )

    grid_total = cold.space_size + 1  # what a cold grid would simulate
    savings = grid_total / max(cold.oracle_sims, 1)
    savings_floor = SMOKE_SAVINGS_FLOOR if smoke else ORACLE_SAVINGS_FLOOR
    return {
        "workload": label,
        "kernel": workload.kernel,
        "stats": workload.stats(),
        "budget": budget,
        "space_size": cold.space_size,
        "baseline_cycles": cold.baseline_cycles,
        "tuned_cycles": cold.best_cycles,
        "tuned_params": cold.best_params,
        "improvement": cold.improvement,
        "speedup": cold.speedup,
        "grid_best_cycles": grid_cycles,
        "grid_best_params": grid_params,
        "grid_extra_sims": grid_sims,
        "oracle_sims": cold.oracle_sims,
        "oracle_savings": savings,
        "trajectory_digest": cold.trajectory_digest(),
        "matches_grid": bool(cold.best_cycles <= grid_cycles),
        "savings_5x": bool(savings >= savings_floor),
        "deterministic_cold": bool(cold.to_json() == cold_again.to_json()),
        "deterministic_warm": bool(
            warm.oracle_sims == 0
            and warm.trajectory_digest() == cold.trajectory_digest()
        ),
    }


def bench_tune(smoke: bool) -> dict:
    data_store = ArtifactStore()  # dataset synthesis cache (repo default)
    kernels = [
        bench_one(*spec, smoke=smoke, data_store=data_store)
        for spec in WORKLOADS
    ]
    improved = [
        k["workload"] for k in kernels if k["improvement"] >= IMPROVEMENT_FLOOR
    ]
    return {
        "kernels": kernels,
        "improved_workloads": improved,
        "improved_10pct_3_of_4": len(improved) >= IMPROVED_KERNELS_FLOOR,
        "tuned_matches_grid_all": all(k["matches_grid"] for k in kernels),
        "oracle_savings_5x_all": all(k["savings_5x"] for k in kernels),
        "deterministic_all": all(
            k["deterministic_cold"] and k["deterministic_warm"]
            for k in kernels
        ),
    }


GATES = (
    "improved_10pct_3_of_4",
    "tuned_matches_grid_all",
    "oracle_savings_5x_all",
    "deterministic_all",
)


def check_baseline(results, baseline_path: Path) -> bool:
    """Compare a fresh run against the committed baseline JSON."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping comparison")
        return True
    baseline = json.loads(baseline_path.read_text())
    ok = True
    for gate in GATES:
        if baseline.get(gate) and not results.get(gate):
            print(f"baseline regression: gate {gate} was true, now false")
            ok = False
    if baseline.get("smoke") == results.get("smoke"):
        base_by_name = {k["workload"]: k for k in baseline["kernels"]}
        for k in results["kernels"]:
            base = base_by_name.get(k["workload"])
            if base is None:
                continue
            if k["tuned_cycles"] > base["tuned_cycles"] * CYCLES_REGRESSION_BAND:
                print(
                    f"baseline regression: {k['workload']} tuned cycles "
                    f"{k['tuned_cycles']:,} > {CYCLES_REGRESSION_BAND}x "
                    f"baseline {base['tuned_cycles']:,}"
                )
                ok = False
            # The seeded search is deterministic: its trajectory and oracle
            # counts must match the committed run exactly.
            for field in EXACT_FIELDS:
                if k[field] != base[field]:
                    print(
                        f"baseline regression: {k['workload']} {field} "
                        f"{k[field]!r} != committed {base[field]!r}"
                    )
                    ok = False
    else:
        print("baseline scale differs (smoke flag); gates checked only")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_tune.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI workload (16-point space, budget 8)",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare the fresh run against the committed --out JSON "
        "instead of overwriting it",
    )
    args = parser.parse_args()

    results = {"smoke": args.smoke, **bench_tune(args.smoke)}

    for k in results["kernels"]:
        params = ", ".join(
            f"{n}={v}" for n, v in sorted(k["tuned_params"].items())
        )
        print(
            f"{k['workload']:<16} baseline {k['baseline_cycles']:>12,} -> "
            f"tuned {k['tuned_cycles']:>12,} cycles "
            f"({k['improvement']:.1%} faster), grid best "
            f"{k['grid_best_cycles']:,} (match: {k['matches_grid']}), "
            f"{k['oracle_sims']} sims for a {k['space_size']}-point space "
            f"({k['oracle_savings']:.1f}x savings)"
        )
        print(f"{'':<16} params: {params or '(paper default)'}")
    print(
        f"gates: improved>=10% on {len(results['improved_workloads'])}/4, "
        f"grid-match {results['tuned_matches_grid_all']}, "
        f"5x-savings {results['oracle_savings_5x_all']}, "
        f"deterministic {results['deterministic_all']}"
    )

    if args.check_baseline:
        ok = check_baseline(results, Path(args.out))
        print("baseline check:", "ok" if ok else "FAILED")
        return 0 if ok else 1

    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = [g for g in GATES if not results[g]]
    if failed:
        print(f"FAILED acceptance gates: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
