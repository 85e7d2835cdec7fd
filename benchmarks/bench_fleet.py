"""Load + chaos benchmark of the sharded serving fleet.

Drives the same deterministic overload trace through the fleet in three
configurations and records the comparison to ``BENCH_fleet.json``:

1. **affinity** — consistent-hash routing on workload fingerprints.
   Gate: higher warm-cache hit rate AND lower p99 latency than random
   routing on the identical trace (warm caches are the point of the
   ring).
2. **random** — seeded per-request uniform routing over live shards
   (the control: same admission, same shards, no affinity).
3. **chaos** — the affinity fleet with a forced mid-spike shard kill.
   Gate: zero lost admitted requests — the dead shard's queued and
   in-flight work is re-dealt to survivors and every admitted request
   is served exactly once (no duplicate completions, no evictions).

Determinism gate: replaying the chaos run with a fresh fleet produces a
bit-identical decision log and response rows.

Observability leg (``repro.obs``): the chaos replay runs once more with
the full observer stack live. Gates: the per-request span tree
reconciles exactly with every served latency (``trace_reconciles``);
two observed replays produce bit-identical SLO burn-rate alert logs
(``slo_replay_deterministic``); the metrics registry round-trips
through the strict OpenMetrics parser (``openmetrics_roundtrip``); and
the observed run's decision log and response rows stay bit-identical to
the unobserved run (``observed_run_identical`` — instrumentation is
purely observational).

The bench exits nonzero unless :func:`accepted` holds for the record it
writes; ``tests/test_bench_fleet.py`` holds the committed
``BENCH_fleet.json`` to it. ``repro obs sentinel --dir bench_now
--baseline .`` compares a fresh full-size record in ``bench_now/`` with
the committed one.

Run as ``PYTHONPATH=src python benchmarks/bench_fleet.py`` (add
``--smoke`` for the short CI workload).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import obs
from repro.obs import RequestTracer, validate_chrome_trace
from repro.obs.export import roundtrip
from repro.obs.slo import SLOMonitor
from repro.serving import (
    FleetConfig,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.trace import trace_stats
from repro.sim.faults import FaultPlan

SEED = 29
POOL_VARIANTS = 3
#: Chaos kill: shard 1 dies halfway through the arrival window — inside
#: the overload spike, when queues and in-flight work are deepest.
CHAOS_KILL = (1, 0.5)


def _pool() -> WorkloadPool:
    return WorkloadPool(seed=SEED, variants=POOL_VARIANTS)


def _fleet(routing: str, plan: FaultPlan = None) -> TensaurusFleet:
    cfg = FleetConfig(
        seed=SEED, shards=3, replicas_per_shard=2, routing=routing,
        queue_depth=64,
    )
    return TensaurusFleet(cfg, fault_plan=plan, pool=_pool())


def bench_fleet(duration_s: float, base_rate: float):
    pool = _pool()
    trace = synthetic_trace(
        pool, duration_s=duration_s, base_rate=base_rate,
        spike_factor=5.0, deadline_s=0.05, seed=SEED,
        tenants=("acme", "beta", "core"),
    )

    affinity = _fleet("affinity").run_trace(trace)
    random_r = _fleet("random").run_trace(trace)

    plan = FaultPlan(seed=SEED, forced_shard_kills=(CHAOS_KILL,))
    chaos = _fleet("affinity", plan).run_trace(trace)
    replay = _fleet("affinity", plan).run_trace(trace)
    deterministic = chaos.decision_log == replay.decision_log and [
        r.log_row() for r in chaos.responses
    ] == [r.log_row() for r in replay.responses]

    telemetry = bench_obs(trace, plan, chaos)

    return {
        **telemetry,
        "trace": trace_stats(trace),
        "affinity": affinity.summary(),
        "random": random_r.summary(),
        "chaos": chaos.summary(),
        "affinity_beats_random_p99": bool(
            affinity.latency_percentile(99) < random_r.latency_percentile(99)
        ),
        "affinity_beats_random_cache": bool(
            affinity.cache_hit_rate > random_r.cache_hit_rate
        ),
        "chaos_shard_killed": chaos.counters["shard_kills"] == 1,
        "chaos_zero_lost": not chaos.lost_request_ids,
        "chaos_exactly_once": bool(
            chaos.exactly_once
            and chaos.counters["evicted"] == 0
            and chaos.counters["served"] == chaos.counters["admitted"]
        ),
        "chaos_work_redealt": chaos.counters["redeals"] > 0,
        "deterministic_replay": bool(deterministic),
    }


def bench_obs(trace, plan, unobserved):
    """The chaos replay again, this time with the observer stack live."""
    runs = []
    for _ in range(2):
        with obs.observe(requests=RequestTracer(seed=SEED)) as ob:
            result = _fleet("affinity", plan).run_trace(trace)
        runs.append((result, ob))
    result, ob = runs[0]

    try:
        ob.requests.reconcile(result)
        reconciles = True
    except ValueError:
        reconciles = False
    validate_chrome_trace(ob.requests.chrome_trace())

    monitor = SLOMonitor()
    slo = monitor.evaluate(result)
    slo_replay = monitor.evaluate(runs[1][0])
    slo_deterministic = (
        slo.digest() == slo_replay.digest()
        and ob.requests.digest() == runs[1][1].requests.digest()
    )

    try:
        roundtrip(ob.registry.snapshot())
        metrics_ok = True
    except ValueError:
        metrics_ok = False

    identical = unobserved.decision_log == result.decision_log and [
        r.log_row() for r in unobserved.responses
    ] == [r.log_row() for r in result.responses]

    spans = sum(
        len(ob.requests.spans(rid)) for rid in ob.requests.request_ids()
    )
    return {
        "obs": {
            "traces": len(ob.requests.request_ids()),
            "spans": spans,
            "slo_digest": slo.digest(),
            "slo_alerts_fired": len(slo.fired),
            "slo_ok": slo.ok,
        },
        "trace_reconciles": bool(reconciles),
        "slo_replay_deterministic": bool(slo_deterministic),
        "openmetrics_roundtrip": bool(metrics_ok),
        "observed_run_identical": bool(identical),
    }


#: Gates no number in the record fixes: they compare two runs, or the
#: observer stack's outputs, which the record holds only as booleans.
RECORDED_GATES = (
    "deterministic_replay",
    "trace_reconciles",
    "slo_replay_deterministic",
    "openmetrics_roundtrip",
    "observed_run_identical",
)


def accepted(record: dict) -> bool:
    """The bench's acceptance rule over one ``BENCH_fleet.json`` record.

    The six routing and chaos gates are re-derived from the record's
    numbers; :data:`RECORDED_GATES` are read as recorded."""
    a, r, c = record["affinity"], record["random"], record["chaos"]
    return bool(
        a["latency_p99_s"] < r["latency_p99_s"]
        and a["cache_hit_rate"] > r["cache_hit_rate"]
        and c["count_shard_kills"] == 1
        and c["lost_requests"] == 0
        and c["exactly_once"]
        and c["count_evicted"] == 0
        and c["count_served"] == c["count_admitted"]
        and c["count_redeals"] > 0
        and all(record[g] for g in RECORDED_GATES)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_fleet.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="short CI workload"
    )
    args = parser.parse_args()

    if args.smoke:
        duration_s, base_rate = 0.4, 120.0
    else:
        duration_s, base_rate = 0.6, 120.0

    results = {"smoke": args.smoke, **bench_fleet(duration_s, base_rate)}

    a, r, c = results["affinity"], results["random"], results["chaos"]
    print(
        f"affinity: p99 {a['latency_p99_s'] * 1e3:.1f} ms, cache hit "
        f"{a['cache_hit_rate']:.1%} on {a['served']}/{a['requests']} served"
    )
    print(
        f"random:   p99 {r['latency_p99_s'] * 1e3:.1f} ms, cache hit "
        f"{r['cache_hit_rate']:.1%} (affinity wins p99: "
        f"{results['affinity_beats_random_p99']})"
    )
    print(
        f"chaos:    shard kill at {CHAOS_KILL[1]:.0%} of trace -> "
        f"{c['count_redeals']} re-dealt, {c['count_voided_inflight']} "
        f"voided in-flight, {c['lost_requests']} lost, exactly-once "
        f"{c['exactly_once']}"
    )
    print(f"determinism: chaos replay={results['deterministic_replay']}")
    o = results["obs"]
    print(
        f"telemetry: {o['traces']} traces / {o['spans']} spans "
        f"(reconciled={results['trace_reconciles']}), "
        f"{o['slo_alerts_fired']} SLO alerts fired "
        f"(digest {o['slo_digest'][:12]}..., "
        f"replay={results['slo_replay_deterministic']}), "
        f"openmetrics={results['openmetrics_roundtrip']}, "
        f"observational purity={results['observed_run_identical']}"
    )

    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not accepted(results):
        print("FAILED acceptance gates")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
