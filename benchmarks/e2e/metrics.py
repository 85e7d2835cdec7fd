"""The benchmark's metric tables: names, units, clocks, directions, bounds.

Imports nothing from ``repro`` so that ``compare.py`` and the test can
read it without the program. ``BENCHMARK.json`` lists
:data:`DRIVER_E2E` and :func:`per_layer` with the bounds of :data:`E2E`.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

FLEET_WORKLOADS = ("fleet-steady", "fleet-overload", "fleet-chaos")
WORKLOADS = FLEET_WORKLOADS + ("factorize",)

HOST = "host"
VIRTUAL = "virtual"
ACCURACY = "accuracy"


class Metric(NamedTuple):
    unit: str
    clock: str
    better: str
    #: the metric may worsen by ``max(rel * |parent median|, abs)``
    #: before a change counts as a regression.
    rel: float
    abs: float
    workloads: Tuple[str, ...]


#: End-to-end metrics. Host metrics are medians over the timed
#: repetitions; virtual and accuracy metrics are deterministic per seed,
#: so their bound is exact. The host time bounds sit near the 0.25
#: ceiling because the speed of the 2-CPU x86_64 VM the baselines ran on
#: drifts by up to ~30% over minutes; ``setup_s`` keeps the largest bound.
E2E: Dict[str, Metric] = {
    "setup_s": Metric("s", HOST, "lower", 0.25, 0.02, WORKLOADS),
    "host_wall_s": Metric("s", HOST, "lower", 0.24, 0.0, WORKLOADS),
    # Offered requests (fleet) or accelerator launches (factorize) per
    # second of replay wall time.
    "host_req_per_s": Metric("1/s", HOST, "higher", 0.24, 0.0, WORKLOADS),
    "peak_rss_mb": Metric("MB", HOST, "lower", 0.15, 0.0, WORKLOADS),
    "virt_p50_ms": Metric("ms", VIRTUAL, "lower", 0.0, 1e-9, FLEET_WORKLOADS),
    "virt_p99_ms": Metric("ms", VIRTUAL, "lower", 0.0, 1e-9, FLEET_WORKLOADS),
    "deadline_hit_rate": Metric(
        "ratio", VIRTUAL, "higher", 0.0, 1e-9, FLEET_WORKLOADS
    ),
    "served_fraction": Metric(
        "ratio", VIRTUAL, "higher", 0.0, 1e-9, FLEET_WORKLOADS
    ),
    "degraded_fraction": Metric(
        "ratio", VIRTUAL, "lower", 0.0, 1e-9, FLEET_WORKLOADS
    ),
    "analytic_bound_miss_rate": Metric(
        "ratio", ACCURACY, "lower", 0.0, 1e-9, FLEET_WORKLOADS
    ),
    "sim_cycles": Metric(
        "cycles", ACCURACY, "lower", 0.0, 0.0, ("factorize",)
    ),
    "error_rate": Metric("ratio", ACCURACY, "lower", 0.0, 0.0, WORKLOADS),
}


def e2e_for(workload: str) -> Tuple[str, ...]:
    """The end-to-end metrics a workload reports, in table order."""
    return tuple(n for n, m in E2E.items() if workload in m.workloads)


#: Metrics the result line carries with ``--trace 0`` (and
#: ``BENCHMARK.json`` lists): every workload reports them and none is 0
#: or fixed by the seed. ``host_wall_s`` is left out because
#: ``host_req_per_s`` is the same measurement without the seed-to-seed
#: change in trace length.
DRIVER_E2E = ("setup_s", "host_req_per_s", "peak_rss_mb")

#: Layers timed by the traced repetition. ``bench.setup`` is the
#: benchmark's own span around input construction; the rest are shims
#: around the program's public functions (see ``layers.py``).
SPAN_LAYERS = (
    "bench.setup",
    "serving.trace.build",
    "serving.ladder.calibrate",
    "datasets.load",
    "serving.fleet",
    "serving.ring.route",
    "serving.tenant.admit",
    "serving.breaker.allow",
    "serving.health.assess",
    "serving.ladder.full",
    "serving.ladder.batched",
    "serving.ladder.analytic",
    "sim.perfmodel",
    "sim.accelerator.run",
    "sim.batch.fingerprint",
    "sim.batch.analyze_tile_stream",
    "formats.csr.to_coo",
    "kernels.mttkrp",
    "kernels.ttmc",
    "kernels.spmm",
    "kernels.spmv",
    "factorization",
)

#: Per-layer counts and ratios measured at the same boundaries.
LAYER_COUNTS: Dict[str, Tuple[str, str]] = {
    "sim.batch.fingerprint.mb": ("MB", "lower"),
    "sim.accelerator.repeat_launch_ratio": ("ratio", "higher"),
    "sim.batch.encoding_cache_hit_ratio": ("ratio", "higher"),
    "serving.tenant.reject_ratio": ("ratio", "lower"),
    "serving.fleet.warm_hit_ratio": ("ratio", "higher"),
    # Virtual queue wait (start - arrival) as a share of the request's
    # deadline budget.
    "serving.fleet.queue_wait_p50_pct": ("%", "lower"),
    "serving.fleet.queue_wait_p99_pct": ("%", "lower"),
    "serving.ladder.faults": ("count", "lower"),
    "serving.breaker.opens": ("count", "lower"),
    "serving.fleet.redeals": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name with its (unit, better).

    Host self time is reported as a share of the traced repetition's
    wall time, so a layer a workload never enters reads 0 %, not 0 s.
    """
    out: Dict[str, Tuple[str, str]] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_pct"] = ("%", "lower")
    out.update(LAYER_COUNTS)
    return out
