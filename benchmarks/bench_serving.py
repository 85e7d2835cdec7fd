"""Load test of the overload-safe single-node server.

Drives the same deterministic 10x-overload-spike trace through three
configurations of a one-shard fleet
(:meth:`repro.serving.FleetConfig.single_node`) and records the
comparison to ``BENCH_serving.json``:

1. **guarded** — admission control + degradation ladder + hedging on.
   Gate: >= 95% of *served* responses meet their deadline, and the
   analytic-tier error bound is reported.
2. **naive** — ``FleetConfig.shedding=False`` without hedging: no
   quota or queue bound, arrival-order dispatch, always full tier.
   Gate: < 50% of its responses meet their deadline under the spike
   (the queueing collapse the guarded server avoids).
3. **chaos** — the guarded server with a launch-abort FaultPlan armed.
   Gate: zero unserved failures (every fault degrades to the analytic
   tier), and the circuit breakers both open and re-close.

Determinism gate: replaying the guarded run with a fresh fleet
produces an identical decision log, and full-tier responses are
bit-identical to direct :class:`repro.sim.Tensaurus` runs.
:func:`accepted` states every gate; ``tests/test_bench_serving.py``
holds the committed ``BENCH_serving.json`` to it.

Run as ``PYTHONPATH=src python benchmarks/bench_serving.py`` (add
``--smoke`` for the short CI workload).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.serving import (
    TIER_FULL,
    FleetConfig,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.trace import trace_stats
from repro.sim import Tensaurus
from repro.sim.faults import FaultPlan

SEED = 42
GUARDED_HIT_GATE = 0.95
NAIVE_HIT_CEILING = 0.50


def _full_tier_bit_identity(pool, trace, result, sample: int = 6) -> bool:
    """Served full-tier responses match direct accelerator runs exactly."""
    direct = Tensaurus()
    checked = 0
    for resp in result.responses:
        if resp.status != "ok" or resp.tier != TIER_FULL:
            continue
        req = next(r for r in trace if r.request_id == resp.request_id)
        ref = pool[req.workload].run(req.kernel, direct, compute_output=True)
        if ref.cycles != resp.report.cycles or not np.array_equal(
            ref.output, resp.report.output
        ):
            return False
        checked += 1
        if checked >= sample:
            break
    return checked > 0


def bench_overload(duration_s: float, base_rate: float):
    pool = WorkloadPool(seed=SEED)
    trace = synthetic_trace(
        pool, duration_s=duration_s, base_rate=base_rate, spike_factor=10.0,
        deadline_s=0.05, seed=SEED,
    )
    guarded_cfg = FleetConfig.single_node(seed=SEED)

    guarded = TensaurusFleet(guarded_cfg, pool=pool).run_trace(trace)
    replay = TensaurusFleet(
        guarded_cfg, pool=WorkloadPool(seed=SEED)
    ).run_trace(trace)
    deterministic = guarded.decision_log == replay.decision_log and [
        r.log_row() for r in guarded.responses
    ] == [r.log_row() for r in replay.responses]

    naive = TensaurusFleet(
        FleetConfig.single_node(seed=SEED, hedging=False, shedding=False),
        pool=pool, calibrate=False,
    ).run_trace(trace)

    plan = FaultPlan(seed=SEED, launch_abort_rate=0.4)
    chaos = TensaurusFleet(
        guarded_cfg, fault_plan=plan, pool=pool
    ).run_trace(trace)
    chaos_states = {t[3] for t in chaos.breaker_transitions}

    return {
        "trace": trace_stats(trace),
        "guarded": guarded.summary(),
        "naive": naive.summary(),
        "chaos": chaos.summary(),
        "deterministic_replay": bool(deterministic),
        "full_tier_bit_identical": _full_tier_bit_identity(
            pool, trace, guarded
        ),
        "chaos_breaker_opened": "open" in chaos_states,
        "chaos_breaker_recovered": "closed" in chaos_states,
    }


def accepted(results: dict) -> bool:
    """The bench's acceptance rule over one ``BENCH_serving.json``
    record."""
    g, n, c = results["guarded"], results["naive"], results["chaos"]
    return bool(
        g["deadline_hit_rate"] >= GUARDED_HIT_GATE
        and n["deadline_hit_rate"] < NAIVE_HIT_CEILING
        and c["count_failed"] == 0
        and results["chaos_breaker_opened"]
        and results["chaos_breaker_recovered"]
        and results["deterministic_replay"]
        and results["full_tier_bit_identical"]
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_serving.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="short CI workload"
    )
    args = parser.parse_args()

    if args.smoke:
        duration_s, base_rate = 0.5, 130.0
    else:
        duration_s, base_rate = 1.2, 150.0

    results = {"smoke": args.smoke, **bench_overload(duration_s, base_rate)}
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    g, n, c = results["guarded"], results["naive"], results["chaos"]
    print(
        f"guarded: hit {g['deadline_hit_rate']:.1%} of deadlines on "
        f"{g['served']}/{g['requests']} served "
        f"({g['degraded_fraction']:.1%} degraded, analytic error bound "
        f"{g['analytic_error_bound']:.1%})"
    )
    print(
        f"naive:   hit {n['deadline_hit_rate']:.1%} on {n['served']} served "
        f"(p99 latency {n['latency_p99_s'] * 1e3:.1f} ms vs guarded "
        f"{g['latency_p99_s'] * 1e3:.1f} ms)"
    )
    print(
        f"chaos:   {c['count_faults']} faults, "
        f"{c['count_analytic_fallbacks']} analytic fallbacks, "
        f"{c['count_failed']} unserved failures, breakers "
        f"opened={results['chaos_breaker_opened']} "
        f"recovered={results['chaos_breaker_recovered']}"
    )
    print(
        f"determinism: replay={results['deterministic_replay']}, "
        f"full-tier bit-identical={results['full_tier_bit_identical']}"
    )
    print(f"wrote {args.out}")

    if not accepted(results):
        print("FAILED acceptance thresholds")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
