"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered workloads (Tables 3/4/5) with published vs
    generated sizes.
``run``
    Run one kernel on a registered dataset through the simulator and print
    the report (plus CPU/GPU comparison).
``roofline``
    Run a kernel across datasets and draw the ASCII roofline.
``info``
    Print the accelerator design point and derived peaks.
``trace``
    Run one kernel (or a short CP-ALS) with tracing enabled and export a
    Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto) plus a
    text flamegraph summary. ``--check`` validates the trace schema and
    asserts the instrumented run is bit-identical to an uninstrumented one.
``serve-replay``
    Replay a deterministic synthetic request trace through the
    overload-safe serving layer (``repro.serving``) and print the
    admission / degradation / deadline summary; ``--naive`` compares
    against the unbounded FIFO baseline, ``--faults`` layers launch
    aborts under the overload spike.
``fleet-replay``
    Replay a trace through the sharded serving fleet
    (``repro.serving.fleet``): cache-affinity consistent-hash routing,
    per-tenant quotas, health-driven autoscaling; ``--kill SID@FRAC``
    kills a shard mid-trace and exercises cross-shard failover.
``obs``
    Fleet telemetry: ``slo`` evaluates SLO burn-rate alerts over a fleet
    replay, ``sentinel`` compares ``BENCH_*.json`` headlines against a
    baseline directory.
``tune``
    Search the config space for a per-workload tuned design.
``chaos``
    Fault-space verification: ``search`` runs randomized fault schedules
    and shrinks every failure it finds, ``replay`` re-runs a regression
    corpus.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro import datasets
from repro.analysis import RooflinePoint, ascii_roofline, format_table
from repro.baselines import CPUBaseline, GPUBaseline, matrix_workload, tensor_workload
from repro.energy import accelerator_energy
from repro.kernels.spec import KERNELS, kernel_spec
from repro.sim import Tensaurus, TensaurusConfig
from repro.tune.workload import synthetic_launch

#: The sparse kernels the commands take, in kernel-table order.
KERNEL_CHOICES = tuple(spec.sparse for spec in KERNELS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tensaurus (HPCA 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered workloads")
    sub.add_parser("info", help="print the accelerator design point")

    run = sub.add_parser("run", help="run one kernel on one dataset")
    run.add_argument("kernel", choices=KERNEL_CHOICES)
    run.add_argument("dataset", help="a registered dataset name")
    run.add_argument("--mode", type=int, default=0, help="tensor target mode")
    run.add_argument("--rank", type=int, default=32, help="F / F1=F2 / N")
    run.add_argument(
        "--msu-mode", choices=("auto", "buffered", "direct"), default="auto"
    )

    roof = sub.add_parser("roofline", help="ASCII roofline across datasets")
    roof.add_argument(
        "kernel", choices=[s.sparse for s in KERNELS if s.order == 3]
    )
    roof.add_argument("--rank", type=int, default=32)

    trace = sub.add_parser(
        "trace", help="run a kernel with tracing on; export Chrome trace JSON"
    )
    trace.add_argument(
        "kernel", choices=KERNEL_CHOICES + ("cp-als",)
    )
    trace.add_argument("dataset", help="a registered dataset name")
    trace.add_argument("--mode", type=int, default=0, help="tensor target mode")
    trace.add_argument("--rank", type=int, default=32, help="F / F1=F2 / N")
    trace.add_argument("--iters", type=int, default=3, help="cp-als sweeps")
    trace.add_argument("--out", default="trace.json", help="trace JSON path")
    trace.add_argument(
        "--check", action="store_true",
        help="validate the trace schema, reconcile phase cycles against the "
        "reports, and assert the run is bit-identical to an uninstrumented one",
    )

    serve = sub.add_parser(
        "serve-replay",
        help="replay a synthetic request trace through the serving layer",
    )
    serve.add_argument("--seed", type=int, default=0, help="trace + server seed")
    serve.add_argument("--duration", type=float, default=0.6,
                       help="virtual trace length in seconds")
    serve.add_argument("--rate", type=float, default=120.0,
                       help="baseline arrival rate (requests/s)")
    serve.add_argument("--spike", type=float, default=10.0,
                       help="overload multiplier during the spike window")
    serve.add_argument("--deadline", type=float, default=0.05,
                       help="nominal per-request deadline budget (s)")
    serve.add_argument("--replicas", type=int, default=2)
    serve.add_argument("--naive", action="store_true",
                       help="unbounded FIFO baseline (no overload controls)")
    serve.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                       help="also arm a launch-abort FaultPlan at RATE")
    serve.add_argument("--out", default=None,
                       help="write the summary + decision log as JSON")

    fleet = sub.add_parser(
        "fleet-replay",
        help="replay a trace through the sharded serving fleet "
        "(cache-affinity routing, tenant quotas, shard-kill failover)",
    )
    fleet.add_argument("--seed", type=int, default=0,
                       help="trace + fleet seed")
    fleet.add_argument("--duration", type=float, default=0.6,
                       help="virtual trace length in seconds")
    fleet.add_argument("--rate", type=float, default=120.0,
                       help="baseline arrival rate (requests/s)")
    fleet.add_argument("--spike", type=float, default=5.0,
                       help="overload multiplier during the spike window")
    fleet.add_argument("--deadline", type=float, default=0.05,
                       help="nominal per-request deadline budget (s)")
    fleet.add_argument("--shards", type=int, default=3)
    fleet.add_argument("--replicas", type=int, default=2,
                       help="replicas per shard")
    fleet.add_argument("--routing", choices=("affinity", "random"),
                       default="affinity")
    fleet.add_argument("--tenants", default="acme,beta,core",
                       help="comma-separated tenant names for the trace")
    fleet.add_argument("--kill", action="append", default=[],
                       metavar="SID@FRAC",
                       help="kill shard SID at FRAC of the arrival window "
                       "(repeatable), e.g. --kill 1@0.5")
    fleet.add_argument("--out", default=None,
                       help="write the summary + decision log as JSON")
    fleet.add_argument("--trace-out", default=None, metavar="PATH",
                       help="also record per-request span trees and write "
                       "them as a Chrome trace (validated + reconciled)")
    fleet.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also collect fleet metrics and write them as "
                       "OpenMetrics text exposition")

    obs_p = sub.add_parser(
        "obs",
        help="fleet telemetry: SLO burn-rate evaluation, benchmark "
        "regression sentinel",
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    def _replay_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--duration", type=float, default=0.6,
                       help="virtual trace length in seconds")
        p.add_argument("--rate", type=float, default=120.0,
                       help="baseline arrival rate (requests/s)")
        p.add_argument("--spike", type=float, default=5.0)
        p.add_argument("--deadline", type=float, default=0.05)
        p.add_argument("--shards", type=int, default=3)
        p.add_argument("--replicas", type=int, default=2)
        p.add_argument("--kill", action="append", default=[],
                       metavar="SID@FRAC",
                       help="kill shard SID at FRAC of the arrival window")

    oslo = obs_sub.add_parser(
        "slo",
        help="replay a fleet trace and evaluate SLO objectives with "
        "multi-window burn-rate alerting",
    )
    _replay_args(oslo)
    oslo.add_argument("--deadline-target", type=float, default=0.90)
    oslo.add_argument("--latency-threshold", type=float, default=0.05,
                      metavar="S")
    oslo.add_argument("--latency-target", type=float, default=0.99)
    oslo.add_argument("--error-target", type=float, default=0.999)
    oslo.add_argument("--json", default=None, metavar="PATH",
                      help="write the full SLO report as JSON")
    oslo.add_argument("--strict", action="store_true",
                      help="exit 1 when any objective is missed")

    osent = obs_sub.add_parser(
        "sentinel",
        help="compare BENCH_*.json headline figures against a baseline "
        "directory with per-metric tolerance bands",
    )
    osent.add_argument("--dir", default=".",
                       help="directory holding the current BENCH_*.json")
    osent.add_argument("--baseline", default=None, metavar="DIR",
                       help="baseline artifact directory (default: "
                       "compare --dir against itself, a schema self-check)")
    osent.add_argument("--json", default=None, metavar="PATH",
                       help="write the delta report as JSON")
    osent.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0")

    tune = sub.add_parser(
        "tune",
        help="search the config space for a per-workload tuned design "
        "(learned-cost-model pruning, cycle-level simulator oracle)",
    )
    tune.add_argument("kernel", nargs="?",
                      choices=KERNEL_CHOICES)
    tune.add_argument("dataset", nargs="?", help="a registered dataset name")
    tune.add_argument("--rank", type=int, default=32, help="F / F1=F2 / N")
    tune.add_argument("--mode", type=int, default=0, help="tensor target mode")
    tune.add_argument("--budget", type=int, default=40,
                      help="oracle measurement budget (design points)")
    tune.add_argument("--seed", type=int, default=0, help="search seed")
    tune.add_argument("--quick-space", action="store_true",
                      help="use the 16-point smoke space instead of the "
                      "324-point default space")
    tune.add_argument("--store-dir", default=None,
                      help="artifact cache directory for oracle memoization "
                      "and the tuned registry (default: the repro cache)")
    tune.add_argument("--no-store", action="store_true",
                      help="skip oracle memoization and registry persistence")
    tune.add_argument("--out", default=None,
                      help="write the full search outcome as JSON")
    tune.add_argument("--list", action="store_true",
                      help="print the tuned-config registry and exit")

    chaos = sub.add_parser(
        "chaos",
        help="property-based fault-space verification: randomized "
        "schedule search with counterexample shrinking, corpus replay",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    csearch = chaos_sub.add_parser(
        "search",
        help="run the deterministic fleet under randomized fault "
        "schedules, checking every invariant on every run",
    )
    csearch.add_argument("--budget", type=int, default=50,
                         help="schedules to explore")
    csearch.add_argument("--seed", type=int, default=0,
                         help="generator seed (search is a pure function "
                         "of seed, start, and budget)")
    csearch.add_argument("--start", type=int, default=0,
                         help="first schedule index")
    csearch.add_argument("--min-events", type=int, default=2)
    csearch.add_argument("--max-events", type=int, default=10)
    csearch.add_argument("--mutate", default=None, metavar="NAME",
                         help="arm a named fault injection (mutation "
                         "test): the search must CATCH it, and failures "
                         "are shrunk to minimal reproducers")
    csearch.add_argument("--corpus-dir", default=None, metavar="DIR",
                         help="store shrunk reproducers in this corpus")
    csearch.add_argument("--out", default=None, metavar="PATH",
                         help="write the full search outcome as JSON")

    creplay = chaos_sub.add_parser(
        "replay",
        help="re-run every schedule in a regression corpus; exit 1 on "
        "any invariant violation",
    )
    creplay.add_argument("--corpus-dir", required=True, metavar="DIR")
    creplay.add_argument("--mutate", default=None, metavar="NAME",
                         help="arm a named fault injection (the replay "
                         "is then expected to fail)")
    creplay.add_argument("--out", default=None, metavar="PATH",
                         help="write per-case results as JSON")
    return parser


def _cmd_datasets() -> int:
    rows = []
    for name, spec in datasets.TENSOR_DATASETS.items():
        rows.append(
            ["tensor", name, "x".join(map(str, spec.full_dims)),
             "x".join(map(str, spec.dims)), f"{spec.density:.2e}", spec.domain]
        )
    for name, spec in datasets.SUITESPARSE_DATASETS.items():
        rows.append(
            ["matrix", name, "x".join(map(str, spec.full_dims)),
             "x".join(map(str, spec.dims)), f"{spec.density:.2e}", spec.domain]
        )
    for name, spec in datasets.CNN_LAYERS.items():
        rows.append(
            ["cnn", name, f"{spec.rows}x{spec.cols}", f"{spec.rows}x{spec.cols}",
             f"{spec.density:.2f}", "fc" if spec.is_fc else "conv"]
        )
    print(format_table(
        ["kind", "name", "published", "generated", "density", "domain"], rows
    ))
    return 0


def _cmd_info() -> int:
    cfg = TensaurusConfig()
    print(format_table(
        ["parameter", "value"],
        [
            ["PE array", f"{cfg.rows}x{cfg.cols}"],
            ["VLEN", cfg.vlen],
            ["MAC units", cfg.mac_units],
            ["clock", f"{cfg.clock_ghz} GHz"],
            ["peak compute", f"{cfg.peak_gops:.0f} GOP/s"],
            ["peak bandwidth", f"{cfg.peak_bw_gbs:.0f} GB/s"],
            ["SPM (per column side)", f"{cfg.spm_kb} KB x {cfg.spm_banks} banks"],
            ["MSU buffer side", f"{cfg.msu_kb} KB"],
            ["CISS entry", f"{cfg.ciss_entry_bytes(2)} B"],
        ],
    ))
    return 0


def _load_any(name: str):
    if name in datasets.TENSOR_DATASETS:
        return "tensor", datasets.load_tensor(name)
    if name in datasets.SUITESPARSE_DATASETS:
        return "matrix", datasets.load_matrix(name)
    if name in datasets.CNN_LAYERS:
        return "matrix", datasets.load_cnn_layer(name)
    raise SystemExit(
        f"unknown dataset {name!r}; run `python -m repro datasets` for the list"
    )


def _load_for(kernel: str, dataset: str):
    """``dataset`` loaded, checked to fit ``kernel``'s operand order."""
    kind, data = _load_any(dataset)
    want = "tensor" if kernel_spec(kernel).order == 3 else "matrix"
    if kind != want:
        raise SystemExit(f"{kernel} needs a {want} dataset")
    return data


def _launch(acc: Tensaurus, args: argparse.Namespace, data, **kwargs):
    """One timing-only launch of ``args.kernel`` at F (= F1 = F2) ``args.rank``."""
    return synthetic_launch(
        acc, args.kernel, data, args.rank, args.rank, **kwargs
    )


def _cmd_run(args: argparse.Namespace) -> int:
    data = _load_for(args.kernel, args.dataset)
    acc = Tensaurus()
    report = _launch(acc, args, data, mode=args.mode, msu_mode=args.msu_mode)
    if kernel_spec(args.kernel).order == 3:
        stats = tensor_workload(args.kernel, data, args.rank, args.rank, mode=args.mode)
    else:
        stats = matrix_workload(args.kernel, data, args.rank)
    cpu = CPUBaseline().run(stats)
    gpu = GPUBaseline().run(stats)
    energy = accelerator_energy(report, acc.config.peak_gops)
    print(report.summary())
    print(format_table(
        ["metric", "value"],
        [
            ["cycles", report.cycles],
            ["time", f"{report.time_s * 1e6:.1f} us"],
            ["throughput", f"{report.gops:.1f} GOP/s"],
            ["bandwidth", f"{report.achieved_bw_gbs:.1f} GB/s"],
            ["op intensity", f"{report.op_intensity:.2f} op/B"],
            ["MSU mode", report.detail.get("msu_mode", "-")],
            ["energy", f"{energy * 1e6:.1f} uJ"],
            ["speedup vs CPU", f"{cpu.time_s / report.time_s:.1f}x"],
            ["speedup vs GPU", f"{gpu.time_s / report.time_s:.2f}x"],
        ],
    ))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    acc = Tensaurus()
    points = []
    for name in datasets.list_tensors():
        report = _launch(acc, args, datasets.load_tensor(name))
        points.append(
            RooflinePoint.from_report(
                name, report, acc.config.peak_gops, acc.config.peak_bw_gbs
            )
        )
    print(ascii_roofline(points, acc.config.peak_gops, acc.config.peak_bw_gbs))
    return 0


def _run_workload(args: argparse.Namespace):
    """Execute the trace workload once; returns the SimReports.

    A fresh accelerator per call, so repeated runs (the ``--check``
    baseline) see identical encoding-cache behaviour.
    """
    acc = Tensaurus()
    if args.kernel == "cp-als":
        kind, data = _load_any(args.dataset)
        if kind != "tensor":
            raise SystemExit("cp-als needs a tensor dataset")
        from repro.factorization.accelerated import accelerated_cp_als

        run = accelerated_cp_als(
            data, rank=args.rank, num_iters=args.iters, seed=0, accelerator=acc
        )
        return run.reports
    data = _load_for(args.kernel, args.dataset)
    return [_launch(acc, args, data, mode=args.mode)]


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    baseline = _run_workload(args) if args.check else None
    with obs.observe() as ob:
        reports = _run_workload(args)
        trace = ob.tracer.export_chrome(args.out)
        summary = ob.tracer.summary()
        snapshot = ob.registry.snapshot()
    count = obs.validate_chrome_trace(trace)
    print(summary)
    print(f"\nwrote {count} events to {args.out}")
    if args.check:
        if len(baseline) != len(reports) or any(
            a.cycles != b.cycles or a.detail != b.detail
            for a, b in zip(baseline, reports)
        ):
            raise SystemExit(
                "check failed: instrumented run diverged from uninstrumented run"
            )
        total = sum(r.cycles for r in reports)
        phase_total = snapshot.get("sim.phase_cycles", {}).get("value", 0)
        if phase_total != total:
            raise SystemExit(
                f"check failed: phase cycles {phase_total} != report cycles {total}"
            )
        print(
            f"check OK: schema valid, bit-identical to uninstrumented run, "
            f"{phase_total} phase cycles == {len(reports)} reports' total"
        )
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.serving import (
        ServingConfig, TensaurusServer, WorkloadPool, synthetic_trace,
    )
    from repro.serving.trace import trace_stats

    pool = WorkloadPool(seed=args.seed)
    trace = synthetic_trace(
        pool, duration_s=args.duration, base_rate=args.rate,
        spike_factor=args.spike, deadline_s=args.deadline, seed=args.seed,
    )
    fault_plan = None
    if args.faults > 0:
        from repro.sim.faults import FaultPlan

        fault_plan = FaultPlan(seed=args.seed, launch_abort_rate=args.faults)
    config = ServingConfig(
        seed=args.seed, replicas=args.replicas, shedding=not args.naive
    )
    server = TensaurusServer(
        config, fault_plan=fault_plan, pool=pool, calibrate=not args.naive
    )
    result = server.run_trace(trace)
    summary = result.summary()
    rows = [[k, f"{v:.4g}" if isinstance(v, float) else str(v)]
            for k, v in summary.items()]
    print(format_table(["metric", "value"], rows))
    stats = trace_stats(trace)
    print(
        f"\ntrace: {stats['count']} requests over {stats['duration_s']:.3f} "
        f"virtual seconds (spike x{args.spike:g})"
    )
    if result.breaker_transitions:
        print("breaker transitions:")
        for replica, when, old, new in result.breaker_transitions[:10]:
            print(f"  t={when:.4f}s replica {replica}: {old} -> {new}")
        if len(result.breaker_transitions) > 10:
            print(f"  ... {len(result.breaker_transitions) - 10} more")
    if args.out:
        import json

        payload = {
            "summary": summary,
            "trace": stats,
            "decision_log": [list(row) for row in result.decision_log],
            "breaker_transitions": [
                list(t) for t in result.breaker_transitions
            ],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"\nwrote replay record to {args.out}")
    return 0


def _parse_kills(specs: List[str]) -> List[Tuple[int, float]]:
    kills: List[Tuple[int, float]] = []
    for spec in specs:
        try:
            sid, frac = spec.split("@", 1)
            kills.append((int(sid), float(frac)))
        except ValueError:
            raise SystemExit(f"bad --kill spec {spec!r}; expected SID@FRAC")
    return kills


def _fleet_replay(args: argparse.Namespace, tenants: Tuple[str, ...],
                  routing: str = "affinity",
                  observed: bool = False):
    """Build + run the standard CLI fleet replay; returns
    ``(result, trace, observation-or-None)``."""
    from repro import obs
    from repro.serving import (
        FleetConfig, TensaurusFleet, WorkloadPool, synthetic_trace,
    )
    from repro.sim.faults import FaultPlan

    kills = _parse_kills(args.kill)
    pool = WorkloadPool(seed=args.seed, variants=3)
    trace = synthetic_trace(
        pool, duration_s=args.duration, base_rate=args.rate,
        spike_factor=args.spike, deadline_s=args.deadline, seed=args.seed,
        tenants=tenants,
    )
    fault_plan = (
        FaultPlan(seed=args.seed, forced_shard_kills=tuple(kills))
        if kills else None
    )
    config = FleetConfig(
        seed=args.seed, shards=args.shards,
        replicas_per_shard=args.replicas, routing=routing,
        queue_depth=64,
    )
    fleet = TensaurusFleet(config, fault_plan=fault_plan, pool=pool)
    if observed:
        from repro.obs import RequestTracer

        with obs.observe(requests=RequestTracer(seed=args.seed)) as ob:
            result = fleet.run_trace(trace)
        return result, trace, ob
    return fleet.run_trace(trace), trace, None


def _cmd_fleet_replay(args: argparse.Namespace) -> int:
    from repro.serving.trace import trace_stats

    tenants = tuple(t for t in args.tenants.split(",") if t) or ("default",)
    observed = bool(args.trace_out or args.metrics_out)
    result, trace, ob = _fleet_replay(
        args, tenants, routing=args.routing, observed=observed
    )
    summary = result.summary()
    rows = [[k, f"{v:.4g}" if isinstance(v, float) else str(v)]
            for k, v in summary.items()]
    print(format_table(["metric", "value"], rows))
    stats = trace_stats(trace)
    print(
        f"\ntrace: {stats['count']} requests over {stats['duration_s']:.3f} "
        f"virtual seconds across {len(tenants)} tenants "
        f"(routing={args.routing})"
    )
    print("per-shard:")
    for sid, st in result.shard_stats.items():
        status = (
            "killed" if st["killed_at"] is not None
            else "draining" if st["draining"] else "alive"
        )
        print(
            f"  shard {sid}: routed={st['routed']} served={st['served']} "
            f"cache {st['cache_hits']}/{st['cache_hits'] + st['cache_misses']}"
            f" warm, {status}"
        )
    print("per-tenant:")
    for name, st in result.tenant_stats.items():
        print(
            f"  {name}: admitted={st['admitted']} rejected={st['rejected']} "
            f"served={st['served']} usage={st['usage_s']:.4f}s "
            f"(weight {st['weight']:g})"
        )
    if result.fault_events:
        print(
            f"faults: {len(result.fault_events)} shard kills, "
            f"{result.counters['redeals']} requests re-dealt, "
            f"{result.counters['voided_inflight']} in-flight voided, "
            f"{len(result.lost_request_ids)} lost"
        )
    if args.out:
        import json

        payload = {
            "summary": summary,
            "trace": stats,
            "shard_stats": {str(k): v for k, v in result.shard_stats.items()},
            "tenant_stats": result.tenant_stats,
            "autoscale_events": [list(e) for e in result.autoscale_events],
            "health_transitions": [
                list(t) for t in result.health_transitions
            ],
            "decision_log": [list(row) for row in result.decision_log],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"\nwrote replay record to {args.out}")
    if args.trace_out:
        from repro.obs import validate_chrome_trace

        ob.requests.reconcile(result)
        payload = ob.requests.chrome_trace()
        validate_chrome_trace(payload)
        ob.requests.export_chrome(args.trace_out)
        print(
            f"wrote request trace to {args.trace_out} "
            f"({len(payload['traceEvents'])} events, validated, "
            "reconciled against "
            f"{sum(1 for r in result.responses if r.latency_s is not None)} "
            "served latencies)"
        )
    if args.metrics_out:
        from repro.obs.export import roundtrip

        text = roundtrip(ob.registry.snapshot())
        with open(args.metrics_out, "w") as fh:
            fh.write(text)
        print(
            f"wrote OpenMetrics exposition to {args.metrics_out} "
            f"({len(text.splitlines())} lines, round-trip validated)"
        )
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import SLOMonitor, default_objectives

    result, _, _ = _fleet_replay(args, ("default",), observed=False)
    monitor = SLOMonitor(default_objectives(
        deadline_target=args.deadline_target,
        latency_threshold_s=args.latency_threshold,
        latency_target=args.latency_target,
        error_target=args.error_target,
    ))
    report = monitor.evaluate(result)
    print(report.as_table())
    print(
        f"\nhorizon {report.horizon_s:.3f}s, "
        f"{len(report.fired)} alerts fired, digest {report.digest()}"
    )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote SLO report to {args.json}")
    if args.strict and not report.ok:
        missed = [n for n, o in report.objectives.items() if not o["met"]]
        print(f"SLO MISSED: {', '.join(sorted(missed))}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_sentinel(args: argparse.Namespace) -> int:
    from repro.obs import sentinel

    report = sentinel.run(args.dir, baseline_dir=args.baseline)
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote sentinel report to {args.json}")
    if report.ok:
        return 0
    if args.warn_only:
        print("sentinel: regressions found (warn-only mode)", file=sys.stderr)
        return 0
    return 1


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "slo":
        return _cmd_obs_slo(args)
    if args.obs_command == "sentinel":
        return _cmd_obs_sentinel(args)
    raise SystemExit(f"unknown obs command {args.obs_command!r}")


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactStore
    from repro.tune import (
        Tuner, TunedRegistry, default_space, quick_space,
        workload_from_dataset,
    )

    store = None
    if not args.no_store:
        store = ArtifactStore(root=args.store_dir)
    if args.list:
        if store is None:
            raise SystemExit("--list needs the artifact store (drop --no-store)")
        print(TunedRegistry(store).as_table())
        return 0
    if not args.kernel or not args.dataset:
        raise SystemExit("tune needs KERNEL and DATASET (or --list)")
    workload = workload_from_dataset(
        args.kernel, args.dataset, rank=args.rank, mode=args.mode, store=store
    )
    space = quick_space() if args.quick_space else default_space()
    tuner = Tuner(
        workload, space, seed=args.seed, budget=args.budget, store=store
    )
    print(
        f"tuning {workload.name}: space of {len(space)} configs, "
        f"budget {tuner.budget}, batch {tuner.batch}, seed {tuner.seed}"
    )
    outcome = tuner.search()
    params = ", ".join(
        f"{k}={v}" for k, v in sorted(outcome.best_params.items())
    )
    print(
        f"baseline {outcome.baseline_cycles:,} cycles -> tuned "
        f"{outcome.best_cycles:,} cycles "
        f"({outcome.improvement:.1%} faster, {outcome.speedup:.2f}x)"
    )
    print(f"tuned params: {params or '(paper default)'}")
    print(
        f"oracle: {outcome.oracle_evals} points measured, "
        f"{outcome.oracle_sims} simulated, {outcome.cache_hits} cached "
        f"(space is {outcome.space_size})"
    )
    if store is not None:
        entry = TunedRegistry(store).record(workload, outcome)
        print(f"recorded tuned config under {entry.fingerprint[:12]}…")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(outcome.to_json(indent=1))
        print(f"wrote search outcome to {args.out}")
    return 0


def _chaos_runner(mutate: Optional[str]):
    from repro.chaos import MUTATIONS, ChaosRunner

    mutator = None
    if mutate is not None:
        try:
            mutator = MUTATIONS[mutate]
        except KeyError:
            raise SystemExit(
                f"unknown mutation {mutate!r}; have {sorted(MUTATIONS)}"
            )
    return ChaosRunner(mutator=mutator)


def _cmd_chaos_search(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactStore
    from repro.chaos import (
        ChaosCorpus, ChaosSearch, ScheduleGenerator, shrink_schedule,
    )

    runner = _chaos_runner(args.mutate)
    generator = ScheduleGenerator(
        seed=args.seed, min_events=args.min_events,
        max_events=args.max_events,
    )
    outcome = ChaosSearch(runner, generator).run(
        args.budget, start=args.start
    )
    print(
        f"explored {outcome.schedules_run} schedules in "
        f"{outcome.elapsed_s:.2f}s ({outcome.schedules_per_s:.1f}/s), "
        f"{outcome.violation_count} violation(s) across "
        f"{len(outcome.failures)} schedule(s)"
    )
    shrunk = []
    if outcome.failures:
        for sched, violations in outcome.failures:
            names = sorted({v.invariant for v in violations})
            result = shrink_schedule(sched, runner, target=names)
            shrunk.append(result)
            print(
                f"  {', '.join(names)}: shrunk {sched.event_count} -> "
                f"{result.minimal.event_count} events "
                f"(ratio {result.ratio:.2f}, "
                f"{result.oracle_calls} oracle calls)"
            )
        if args.corpus_dir:
            corpus = ChaosCorpus(ArtifactStore(root=args.corpus_dir))
            for result in shrunk:
                key = corpus.add(
                    result.minimal, invariants=result.target,
                    note=f"shrunk from {result.original.event_count} "
                    f"events (seed {result.original.seed})",
                )
                print(f"  stored reproducer {key}")
    if args.out:
        data = outcome.to_json()
        data["shrunk"] = [r.to_json() for r in shrunk]
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
        print(f"wrote search outcome to {args.out}")
    if args.mutate is not None:
        # Mutation testing: the armed bug MUST be caught.
        if not outcome.failures:
            print(f"mutation {args.mutate!r} went UNDETECTED")
            return 1
        return 0
    return 1 if outcome.failures else 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactStore
    from repro.chaos import ChaosCorpus

    corpus = ChaosCorpus(ArtifactStore(root=args.corpus_dir))
    if not len(corpus):
        print(f"corpus at {args.corpus_dir} is empty")
        return 1
    runner = _chaos_runner(args.mutate)
    results = corpus.replay(runner)
    regressed = {k: v for k, v in results.items() if v}
    for key in sorted(results):
        names = sorted({v["invariant"] for v in results[key]})
        status = f"FAIL ({', '.join(names)})" if names else "ok"
        print(f"  {key}: {status}")
    print(
        f"replayed {len(results)} corpus case(s), "
        f"{len(regressed)} regressed"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 1 if regressed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "search":
        return _cmd_chaos_search(args)
    if args.chaos_command == "replay":
        return _cmd_chaos_replay(args)
    raise SystemExit(f"unknown chaos command {args.chaos_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "roofline":
        return _cmd_roofline(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve-replay":
        return _cmd_serve_replay(args)
    if args.command == "fleet-replay":
        return _cmd_fleet_replay(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
