"""End-to-end benchmark: four workloads, two clocks, host time per layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--reps N]
        [--seconds S] [--trace 0|1] [--trace-out PATH] [--out PATH]

Each workload runs in its own fresh, single-threaded child process
(``workloads.py``), one at a time. The child checks the outputs of an
untimed first repetition, times set-up and the measured run of every
further repetition, and with ``--trace 1`` adds one traced repetition
under the layer shims of ``layers.py``. This process prints every
metric with its unit and clock, writes the full records to ``--out``,
and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
host end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; prefixed ``<workload>.`` when more than one workload ran).
The exit code is 1 if any correctness check failed and 2 if a child
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: A child that takes longer than this is stopped and counted as failed.
CHILD_TIMEOUT_S = 900


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def trace_path(
    trace_out: Optional[str], workload: str, many: bool
) -> Optional[str]:
    if not trace_out or not many:
        return trace_out
    path = Path(trace_out)
    return str(path.with_name(f"{path.stem}.{workload}{path.suffix}"))


def run_child(
    workload: str, args: argparse.Namespace, many: bool
) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--reps", str(args.reps),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale),
    ]
    out = trace_path(args.trace_out, workload, many)
    if out:
        cmd += ["--trace-out", out]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload {workload} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    print(
        f"== {name}: seed {record['seed']}, {record['reps']} repetitions, "
        f"{record['attempted']} attempted, {record['failed']} failed"
    )
    for metric, m in record["metrics"].items():
        print(
            f"  {metric:<28} {m['value']:>16.6g} {m['unit']:<7} {m['clock']}"
        )
    for layer, row in record.get("layers", {}).items():
        if row["calls"]:
            pct = record["per_layer"][f"{layer}.self_pct"]["value"]
            print(
                f"  {layer:<34} {row['calls']:>8} calls "
                f"{row['self_s']:>9.4f} s self {pct:>6.2f} % host"
            )
    for metric, m in record.get("per_layer", {}).items():
        if metric in metrics.LAYER_COUNTS:
            print(f"  {metric:<40} {m['value']:>12.6g} {m['unit']}")


def driver_line(records: List[Dict[str, Any]], traced: bool) -> Dict[str, Any]:
    """The last output line: totals plus the metrics BENCHMARK.json names."""
    out: Dict[str, Any] = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        if traced:
            chosen = record["per_layer"]
        else:
            chosen = {n: record["metrics"][n] for n in metrics.DRIVER_E2E}
        for name, m in chosen.items():
            out[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": out,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", choices=metrics.WORKLOADS, action="append",
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument(
        "--reps", type=int, default=None,
        help="timed repetitions (default 5, or 2 with --seconds)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating until this many seconds have been measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--trace-out", default=None,
        help="write the traced repetition's spans as a Chrome trace",
    )
    parser.add_argument("--out", default=None, help="write the full records")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload (the test uses 0.05)",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run stops and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.reps is None:
        args.reps = 2 if args.seconds else 5
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    workloads = args.workload or list(metrics.WORKLOADS)

    records = []
    for workload in workloads:
        try:
            record = run_child(workload, args, len(workloads) > 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_record(record)
        records.append(record)

    if args.out:
        report = {
            "seed": args.seed,
            "scale": args.scale,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": {r["workload"]: r for r in records},
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    line = driver_line(records, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
