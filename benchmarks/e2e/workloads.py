"""The four workloads and the measurement of one of them in this process.

``run.py`` starts this file once per workload in a fresh process and
reads the JSON record it prints as its last line. Each repetition builds
its inputs from the seed (timed as set-up) and replays them (timed as
the run); the traced repetition then repeats both under the layer shims
of ``layers.py``. The checks run on the untimed first repetition's
outputs.

Run directly with ``PYTHONPATH=src python benchmarks/e2e/workloads.py
--workload fleet-steady``; ``run.py`` is the normal entry point.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import metrics  # noqa: E402
from repro.datasets import registry  # noqa: E402
from repro.factorization import accelerated  # noqa: E402
from repro.factorization.cp import cp_als  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from repro.serving import (  # noqa: E402
    FleetConfig,
    TensaurusFleet,
    TenantQuota,
    WorkloadPool,
)
from repro.serving import trace as trace_mod  # noqa: E402
from repro.serving.ladder import (  # noqa: E402
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
)
from repro.serving.request import STATUS_FAILED  # noqa: E402
from repro.sim import Tensaurus  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402

DEFAULT_SEED = 29
#: set-ups timed per run, at least (every timed repetition adds one)
SETUP_SAMPLES = 10
TENANTS = ("acme", "beta", "core")
#: far above any tenant's offered rate, so quotas never bind
NON_BINDING_RATE = 1.0e5


@dataclass(frozen=True)
class FleetSpec:
    variants: int
    duration_s: float
    rate: float
    spike_factor: float
    deadline_s: float
    shards: int
    max_shards: int
    hedging: bool = False
    autoscale: bool = True
    chaos: bool = False


FLEETS: Dict[str, FleetSpec] = {
    # No autoscaling: drained idle shards would push steady traffic off
    # the full tier on most seeds.
    "fleet-steady": FleetSpec(
        8, 8.0, 600.0, 1.0, 0.05, 8, 10, autoscale=False
    ),
    # 16 variants put 80 workloads against 4 shards' 6-entry warm caches.
    "fleet-overload": FleetSpec(16, 3.0, 1500.0, 10.0, 0.01, 4, 6),
    # No autoscaling, so the forced kills hit live shards.
    "fleet-chaos": FleetSpec(
        8, 6.0, 800.0, 1.0, 0.05, 8, 10, hedging=True, autoscale=False,
        chaos=True,
    ),
}

#: fleet-chaos kills: (shard, fraction of the arrival window).
CHAOS_KILLS = ((1, 0.3), (2, 0.6))

#: The paper's Table 3 tensors at registry scale.
CP_TENSORS = ("nell-2", "netflix", "poisson3D")
CP_RANK = 16
CP_ITERS = 5
CP_FIT_TOL = 1e-9


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _same_array(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return (
        a.shape == b.shape and a.dtype == b.dtype
        and a.tobytes() == b.tobytes()
    )


def _same_report(a, b) -> bool:
    return (
        a.cycles == b.cycles
        and a.ops == b.ops
        and a.tensor_bytes == b.tensor_bytes
        and a.matrix_bytes == b.matrix_bytes
        and a.output_bytes == b.output_bytes
        and a.detail == b.detail
        and _same_array(a.output, b.output)
    )


class FleetWorkload:
    """An open-loop Poisson trace (virtual time) replayed by a fleet."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.spec = FLEETS[name]
        self.seed = seed
        self.scale = scale

    def setup(self):
        spec, seed = self.spec, self.seed
        pool = WorkloadPool(seed=seed, variants=spec.variants)
        requests = trace_mod.synthetic_trace(
            pool, duration_s=spec.duration_s * self.scale,
            base_rate=spec.rate, spike_factor=spec.spike_factor,
            deadline_s=spec.deadline_s, seed=seed, tenants=TENANTS,
        )
        plan = None
        if spec.chaos:
            plan = FaultPlan(seed=seed, launch_abort_rate=0.05)
        config = FleetConfig(
            seed=seed, shards=spec.shards, replicas_per_shard=2,
            max_shards=spec.max_shards, queue_depth=64,
            hedging=spec.hedging, autoscale=spec.autoscale,
            tenant_default=TenantQuota(rate=NON_BINDING_RATE),
        )
        fleet = TensaurusFleet(config, fault_plan=plan, pool=pool)
        kills = _kill_times(fleet, requests) if spec.chaos else []
        return fleet, requests, kills

    @staticmethod
    def run(inputs):
        fleet, requests, kills = inputs
        return fleet.run_trace(requests, kills=kills)

    @staticmethod
    def attempted(inputs) -> int:
        return len(inputs[1])

    @staticmethod
    def work(inputs, result) -> int:
        """Offered requests: the unit of ``host_req_per_s``."""
        return len(inputs[1])

    @staticmethod
    def digest(result) -> str:
        return _digest(
            (result.decision_log, [r.log_row() for r in result.responses])
        )

    @staticmethod
    def failed_items(result) -> int:
        failed = {r.request_id for r in result.responses
                  if r.status == STATUS_FAILED}
        return (
            len(failed | set(result.lost_request_ids))
            + result.counters.get("duplicate_completions", 0)
        )

    def check(self, inputs, result) -> Tuple[Dict[str, Any], Dict[str, float]]:
        """Correctness and coverage checks, with the count of failed ones
        as ``mismatches``, plus the virtual and accuracy metrics."""
        fleet, requests, _ = inputs
        by_id = {r.request_id: r for r in requests}
        direct: Dict[Tuple[str, str, str], Any] = {}

        def direct_run(kernel: str, workload: str, tier: str):
            key = (kernel, workload, tier)
            if key not in direct:
                direct[key] = fleet.pool[workload].run(
                    kernel, Tensaurus(fleet.sim_config),
                    compute_output=tier == TIER_FULL,
                )
            return direct[key]

        mismatched = misses = analytic = 0
        for resp in result.served:
            req = by_id[resp.request_id]
            if resp.tier in (TIER_FULL, TIER_BATCHED):
                if resp.report.fault_events:
                    continue
                expect = direct_run(req.kernel, req.workload, resp.tier)
                mismatched += not _same_report(resp.report, expect)
            elif resp.tier == TIER_ANALYTIC:
                analytic += 1
                sim = direct_run(req.kernel, req.workload, TIER_BATCHED)
                err = abs(resp.report.cycles - sim.cycles) / max(sim.cycles, 1)
                misses += err > resp.error_bound

        c = result.counters
        offered = len(requests)
        full = sum(1 for r in result.served if r.tier == TIER_FULL)
        coverage = {
            "fleet-steady": {"full_share_ge_0.9": full / offered >= 0.9},
            "fleet-overload": {
                "analytic_gt_0": analytic > 0,
                "shed_or_rejected_gt_0": c["shed"] + c["rejected"] > 0,
            },
            "fleet-chaos": {
                "shard_kills_eq_2": c["shard_kills"] == 2,
                "redeals_ge_1": c["redeals"] >= 1,
                "faults_gt_0": c["faults"] > 0,
                "hedged_gt_0": c["hedged"] > 0,
            },
        }[self.name]
        checks = {
            "responses_checked": len(result.served),
            "bit_identity_mismatches": mismatched,
            "direct_runs": len(direct),
            "exactly_once": result.exactly_once,
            "coverage": coverage,
            "mismatches": (
                mismatched + (not result.exactly_once)
                + sum(not ok for ok in coverage.values())
            ),
        }
        values = {
            "virt_p50_ms": result.latency_percentile(50) * 1e3,
            "virt_p99_ms": result.latency_percentile(99) * 1e3,
            "deadline_hit_rate": result.overall_hit_rate,
            "served_fraction": result.served_fraction,
            "degraded_fraction": result.degraded_fraction,
            "analytic_bound_miss_rate": misses / analytic if analytic else 0.0,
        }
        return checks, values

    @staticmethod
    def layer_counts(inputs, result) -> Dict[str, float]:
        fleet, requests, _ = inputs
        deadline = {r.request_id: r.deadline_s for r in requests}
        waits = [
            100.0 * (r.start_s - r.arrival_s) / deadline[r.request_id]
            for r in result.served
        ]
        tenants = result.tenant_stats.values()
        rejected = sum(t["rejected"] for t in tenants)
        decided = rejected + sum(t["admitted"] for t in tenants)
        infos = [
            acc.cache_info()
            for shard in fleet.shards.values()
            for acc in shard.server.accelerators
        ]
        return {
            "sim.batch.encoding_cache_hit_ratio": _hit_ratio(infos),
            "serving.tenant.reject_ratio": (
                rejected / decided if decided else 0.0
            ),
            "serving.fleet.warm_hit_ratio": result.cache_hit_rate,
            "serving.fleet.queue_wait_p50_pct": float(np.median(waits)),
            "serving.fleet.queue_wait_p99_pct": float(
                np.percentile(waits, 99)
            ),
            "serving.ladder.faults": result.counters["faults"],
            "serving.breaker.opens": sum(
                1 for t in result.breaker_transitions if t[3] == "open"
            ),
            "serving.fleet.redeals": result.counters["redeals"],
        }


def _kill_times(fleet, requests) -> List[Tuple[int, float]]:
    """Kill each shard at the first arrival routed to it after its
    fraction of the trace: that request is queued or in flight at the
    kill, so failover re-deals work on every seed."""
    last = requests[-1].arrival_s
    kills = []
    for shard, fraction in CHAOS_KILLS:
        for req in requests:
            if req.arrival_s >= fraction * last and shard == fleet.ring.route(
                fleet.pool[req.workload].fingerprint
            ):
                kills.append((shard, req.arrival_s))
                break
    return kills


class FactorizeWorkload:
    """CP-ALS on the Table 3 tensors, one fresh accelerator per tensor."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.iters = max(1, round(CP_ITERS * scale))

    @staticmethod
    def setup():
        return [registry.load_tensor(name) for name in CP_TENSORS]

    def run(self, tensors):
        return [
            accelerated.accelerated_cp_als(
                t, CP_RANK, num_iters=self.iters, seed=self.seed,
                accelerator=Tensaurus(),
            )
            for t in tensors
        ]

    @staticmethod
    def attempted(tensors) -> int:
        return len(tensors)

    @staticmethod
    def work(tensors, runs) -> int:
        """Accelerator launches: the unit of ``host_req_per_s``."""
        return sum(len(run.reports) for run in runs)

    @staticmethod
    def digest(runs) -> str:
        return _digest([
            (
                [(r.kernel, r.cycles, r.ops, r.total_bytes)
                 for r in run.reports],
                run.decomposition.fit_trace,
            )
            for run in runs
        ])

    @staticmethod
    def failed_items(runs) -> int:
        return 0

    def check(self, tensors, runs) -> Tuple[Dict[str, Any], Dict[str, float]]:
        worst = 0.0
        mismatched = 0
        for tensor, run in zip(tensors, runs):
            want = cp_als(
                tensor, CP_RANK, num_iters=self.iters, seed=self.seed
            ).fit_trace
            got = run.decomposition.fit_trace
            if len(got) != len(want):
                mismatched += 1
                continue
            gap = max(abs(float(a) - float(b)) for a, b in zip(got, want))
            worst = max(worst, gap)
            mismatched += gap > CP_FIT_TOL
        checks = {"mismatches": mismatched, "cp_fit_max_gap": worst}
        values = {
            "sim_cycles": int(
                sum(r.cycles for run in runs for r in run.reports)
            ),
        }
        return checks, values

    @staticmethod
    def layer_counts(tensors, runs) -> Dict[str, float]:
        return {
            "sim.batch.encoding_cache_hit_ratio": _hit_ratio(
                [run.cache_info for run in runs]
            ),
        }


def _hit_ratio(infos: List[Dict[str, int]]) -> float:
    hits = sum(i["hits"] for i in infos)
    total = hits + sum(i["misses"] for i in infos)
    return hits / total if total else 0.0


def make(name: str, seed: int, scale: float = 1.0):
    if name in FLEETS:
        return FleetWorkload(name, seed, scale)
    if name == "factorize":
        return FactorizeWorkload(seed, scale)
    raise ValueError(
        f"unknown workload {name!r}; choose from {metrics.WORKLOADS}"
    )


def _repetition(wl, rec: Optional[layers.SpanRecorder] = None):
    """Build and replay one repetition: (inputs, outputs, setup s, run s).

    A full collection first gives every repetition the same heap.
    """
    gc.collect()
    t0 = perf_counter()
    if rec is None:
        inputs = wl.setup()
    else:
        with rec.span("bench.setup"):
            inputs = wl.setup()
    t1 = perf_counter()
    outputs = wl.run(inputs)
    t2 = perf_counter()
    return inputs, outputs, t1 - t0, t2 - t1


def _traced(wl, host_wall: float, trace_out: Optional[str]):
    """The traced repetition: per-layer metrics, rollups and its digest."""
    rec = layers.SpanRecorder()
    with layers.installed(rec):
        inputs, outputs, setup, run = _repetition(wl, rec)
    wall = setup + run
    values: Dict[str, float] = dict.fromkeys(metrics.LAYER_COUNTS, 0.0)
    for layer in metrics.SPAN_LAYERS:
        values[f"{layer}.calls"] = rec.calls.get(layer, 0)
        values[f"{layer}.self_pct"] = 100.0 * rec.self_s.get(layer, 0.0) / wall
    values.update(wl.layer_counts(inputs, outputs))
    values["sim.batch.fingerprint.mb"] = rec.fingerprint_bytes / 1e6
    values["sim.accelerator.repeat_launch_ratio"] = (
        rec.repeat_launches / rec.launches if rec.launches else 0.0
    )
    values["trace.overhead_frac"] = run / host_wall - 1.0
    chrome = rec.chrome_trace()
    validate_chrome_trace(chrome)
    if trace_out:
        Path(trace_out).write_text(json.dumps(chrome))
    record = {
        "per_layer": {
            n: {"value": values[n], "unit": unit}
            for n, (unit, _) in metrics.per_layer().items()
        },
        "layers": {
            layer: {
                "calls": rec.calls.get(layer, 0),
                "self_s": rec.self_s.get(layer, 0.0),
            }
            for layer in metrics.SPAN_LAYERS
        },
        "traced": {
            "setup_s": setup,
            "run_s": run,
            "spans": len(rec.spans),
            "self_coverage": sum(rec.self_s.values()) / wall,
        },
    }
    return record, wl.digest(outputs)


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    reps: int = 5,
    seconds: float = 0.0,
    traced: bool = True,
    scale: float = 1.0,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure one workload in this process and return its record.

    A first, untimed repetition lets lazy state and the heap settle; its
    outputs are checked and give the deterministic metrics. Timed
    repetitions then continue until ``reps`` are done and ``seconds``
    have passed. The digest of every repetition, the traced one
    included, must match the first.
    """
    wl = make(name, seed, scale)
    inputs, outputs, _, _ = _repetition(wl)
    checks, values = wl.check(inputs, outputs)
    work = wl.work(inputs, outputs)
    digests = [wl.digest(outputs)]
    attempted = wl.attempted(inputs)
    failed = wl.failed_items(outputs)
    del inputs, outputs

    setup_s: List[float] = []
    wall_s: List[float] = []
    started = perf_counter()
    while len(wall_s) < reps or perf_counter() - started < seconds:
        inputs, outputs, setup, run = _repetition(wl)
        setup_s.append(setup)
        wall_s.append(run)
        digests.append(wl.digest(outputs))
        attempted += wl.attempted(inputs)
        failed += wl.failed_items(outputs)
        del inputs, outputs
    while len(setup_s) < SETUP_SAMPLES:
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
    host_wall = statistics.median(wall_s)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values.update({
        "setup_s": statistics.median(setup_s),
        "host_wall_s": host_wall,
        "host_req_per_s": statistics.median(work / w for w in wall_s),
        "peak_rss_mb": rss_kb / 1024.0,
    })

    record: Dict[str, Any] = {"workload": name, "seed": seed, "scale": scale}
    if traced:
        traced_record, digest = _traced(wl, host_wall, trace_out)
        record.update(traced_record)
        digests.append(digest)

    digest_mismatches = sum(d != digests[0] for d in digests)
    failed += checks["mismatches"] + digest_mismatches
    values["error_rate"] = failed / attempted
    checks["digest"] = digests[0]
    checks["digest_mismatches"] = digest_mismatches
    record["metrics"] = {
        n: {
            "value": values[n],
            "unit": metrics.E2E[n].unit,
            "clock": metrics.E2E[n].clock,
        }
        for n in metrics.e2e_for(name)
    }
    record.update({
        "samples": {"setup_s": setup_s, "host_wall_s": wall_s},
        "reps": len(wall_s),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    })
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    record = measure(
        args.workload, seed=args.seed, reps=args.reps, seconds=args.seconds,
        traced=bool(args.trace), scale=args.scale, trace_out=args.trace_out,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
