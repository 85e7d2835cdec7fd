"""Compare reports of a parent and a change, one row per (metric, workload).

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is one ``run.py --out`` report. Run at least ten of each side,
alternating which side runs first; pairs are formed in the order given.
For every end-to-end metric and workload the verdict is:

- ``gain``: over at least 10 pairs, the change wins at least 9/10 of
  them (ties count for neither) and the medians differ by more than the
  parent's IQR;
- ``unresolved``: the run-to-run spread (IQR) is wider than the bound,
  unless every change run reads better than every parent run
  (``better``);
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise.

A metric may worsen by ``max(rel * |parent median|, abs)``. ``rel`` is
the ``bound`` in ``BENCHMARK.json`` for the metrics listed there and
otherwise comes from ``metrics.E2E`` (exact for deterministic metrics).
The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
#: fewest parent/change pairs that can support a claimed gain
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    rel: float,
    abs_bound: float,
) -> Tuple[str, int]:
    """The verdict for one (metric, workload) and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (cm - pm) * sign
    slack = max(rel * abs(pm), abs_bound)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    won = len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
    if won and gain > 0 and abs(cm - pm) > p3 - p1:
        return "gain", wins
    if max(p3 - p1, c3 - c1) > slack:
        if min(c * sign for c in change) > max(p * sign for p in parent):
            return "better", wins
        return "unresolved", wins
    if -gain > slack:
        return "regression", wins
    return "within bound", wins


def bounds() -> Dict[str, Tuple[float, float]]:
    """(rel, abs) per end-to-end metric, BENCHMARK.json taking precedence."""
    out = {name: (m.rel, m.abs) for name, m in metrics.E2E.items()}
    if BENCHMARK_JSON.exists():
        for entry in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]:
            out[entry["name"]] = (entry["bound"], out[entry["name"]][1])
    return out


def collect(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, record in report["workloads"].items():
            for name, m in record["metrics"].items():
                values.setdefault((name, workload), []).append(m["value"])
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    parent, change = collect(args.parent), collect(args.change)
    limits = bounds()
    header = (
        f"{'metric':<26} {'workload':<15} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'bound':<14} {'won':<6} verdict"
    )
    print(header)
    regressions = 0
    for name, metric in metrics.E2E.items():
        for workload in metrics.WORKLOADS:
            key = (name, workload)
            if key not in parent or key not in change:
                continue
            rel, abs_bound = limits[name]
            result, wins = verdict(
                parent[key], change[key], metric.better, rel, abs_bound
            )
            regressions += result == "regression"
            p1, pm, p3 = quartiles(parent[key])
            c1, cm, c3 = quartiles(change[key])
            pairs = min(len(parent[key]), len(change[key]))
            bound = f"{rel:g}/{abs_bound:g}"
            print(
                f"{name:<26} {workload:<15} "
                f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':<34} "
                f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':<34} "
                f"{bound:<14} {f'{wins}/{pairs}':<6} {result}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
