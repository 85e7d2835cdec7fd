"""Benchmark regression sentinel over the ``BENCH_*.json`` trajectory.

Every PR in this repo commits benchmark artifacts (``BENCH_sim.json``,
``BENCH_fleet.json``, ...) whose headline figures back its perf claims —
but until now nothing re-checked those claims automatically. The
sentinel closes the loop:

1. **Ingest** every ``BENCH_*.json`` in a directory and *normalize* the
   heterogeneous schemas into one flat ``artifact → dotted.metric.path →
   scalar`` table (lists are keyed by their ``tensor``/``kernel``/
   ``workload``/``name`` field when present, by index otherwise).
2. **Select** the headline figures via per-artifact rules
   (:data:`HEADLINES`): each rule is a path regex plus a direction —
   ``higher`` (speedups must not fall), ``lower`` (cycles/latency must
   not rise), ``gate`` (booleans must not flip off), or ``same``
   (digests and simulation counts must match exactly, strings included)
   — and a tolerance band ``max(rel_tol·|baseline|, atol)`` so near-zero
   baselines (e.g. a 0.004 disabled-overhead figure) get an absolute
   floor instead of a meaningless relative one.
3. **Compare** current artifacts against a committed baseline directory
   and render a human-readable delta table; any metric outside its band
   fails the run (exit 1 via ``repro obs sentinel``), which is what
   turns a silent perf regression into a red CI job.

Wall-clock-derived figures get wide bands (machines differ); cycle
counts, digests and determinism gates get none (the simulator is
deterministic). Each record's run size (``smoke``, ``budget``,
``quick``, workload shapes) is a ``same`` figure, so a record of
another size is refused instead of compared.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

__all__ = [
    "Rule",
    "HEADLINES",
    "flatten",
    "collect_artifacts",
    "collect_figures",
    "compare",
    "SentinelReport",
]

#: List-entry keys used to name list elements in flattened paths.
_NAME_KEYS = ("tensor", "kernel", "workload", "name")


@dataclass(frozen=True)
class Rule:
    """One headline selector: path regex + direction + tolerance band."""

    pattern: str
    direction: str  # "higher" | "lower" | "gate" | "same"
    rel_tol: float = 0.0
    atol: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "gate", "same"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.rel_tol < 0 or self.atol < 0:
            raise ValueError("tolerances must be non-negative")

    def matches(self, path: str) -> bool:
        return re.fullmatch(self.pattern, path) is not None

    def band(self, baseline: float) -> float:
        return max(self.rel_tol * abs(baseline), self.atol)


#: Headline figures per artifact stem. Wall-clock speedups carry wide
#: relative bands; deterministic cycle counts carry none; boolean gates
#: must simply never flip from True to False; digests and simulation
#: counts must stay exactly what they were.
HEADLINES: Dict[str, Tuple[Rule, ...]] = {
    "BENCH_sim": (
        Rule(r"(quick|(mttkrp|cp_als)\.(shape\.\d+|nnz|rank)"
             r"|cp_als\.num_iters|engines\.workload\..+)", "same"),
        Rule(r"mttkrp\.cycles", "lower", 0.0),
        Rule(r"mttkrp\.identical", "gate"),
        Rule(r"(mttkrp\.batched_(cold|cached)_s|cp_als\.cached_s"
             r"|engines\.total_s)", "lower", 1.0),
        Rule(r"cp_als\.cache_hit_speedup", "higher", 0.30),
        Rule(r"sweep\.deterministic", "gate"),
    ),
    "BENCH_encoders": (
        Rule(r"quick", "same"),
        Rule(r"suite\.warm_speedup", "higher", 0.40),
    ),
    "BENCH_obs": (
        Rule(r"quick", "same"),
        # Near-zero baseline: the band is the absolute gate headroom,
        # not a fraction of a reading within a percent of 0.
        Rule(r"mttkrp\.disabled_overhead", "lower", 0.0, 0.016),
        Rule(r"mttkrp\.bit_identical", "gate"),
        Rule(r"mttkrp\.cycles", "lower", 0.0),
    ),
    "BENCH_serving": (
        Rule(r"smoke", "same"),
        Rule(r"guarded\.deadline_hit_rate", "higher", 0.02),
        Rule(r"guarded\.latency_p99_s", "lower", 0.50, 0.005),
        Rule(r"(deterministic_replay|full_tier_bit_identical"
             r"|chaos_breaker_opened|chaos_breaker_recovered)", "gate"),
    ),
    "BENCH_fleet": (
        Rule(r"affinity\.(deadline_hit_rate|cache_hit_rate)", "higher",
             0.02),
        Rule(r"affinity\.latency_p99_s", "lower", 0.50, 0.005),
        Rule(r"(smoke|obs\.slo_digest)", "same"),
        Rule(r"(affinity_beats_random_p99|affinity_beats_random_cache"
             r"|chaos_shard_killed|chaos_zero_lost|chaos_exactly_once"
             r"|chaos_work_redealt|deterministic_replay)", "gate"),
        Rule(r"(trace_reconciles|slo_replay_deterministic"
             r"|openmetrics_roundtrip|observed_run_identical)", "gate"),
    ),
    "BENCH_chaos": (
        Rule(r"search\.violations", "lower", 0.0),
        Rule(r"(smoke|budget|search\.digest)", "same"),
        Rule(r"mutation\.ratio", "lower", 0.0),
        Rule(r"(search_zero_violations|all_invariants_checked"
             r"|replay_bit_identical|mutation_caught|shrink_ratio_ok"
             r"|minimal_passes_clean|corpus_replay_clean)", "gate"),
    ),
    "BENCH_resilience": (
        Rule(r"smoke", "same"),
        Rule(r"overhead\.baseline_cycles", "lower", 0.0),
        Rule(r"overhead\.(rate_zero_identical|replay_identical"
             r"|overhead_monotone)", "gate"),
        Rule(r"degraded_lanes\.degradation_graceful", "gate"),
        Rule(r"cp_resume\.(factors_match|trace_match)", "gate"),
    ),
    "BENCH_tune": (
        Rule(r"kernels\.[^.]+\.speedup", "higher", 0.10),
        Rule(r"kernels\.[^.]+\.tuned_cycles", "lower", 0.0),
        Rule(r"(smoke|kernels\.[^.]+\.(trajectory_digest|oracle_sims"
             r"|grid_extra_sims))", "same"),
        Rule(r"(improved_10pct_3_of_4|tuned_matches_grid_all"
             r"|oracle_savings_5x_all|deterministic_all)", "gate"),
    ),
}


def flatten(value: object, prefix: str = "") -> Dict[str, object]:
    """Normalize one artifact into ``dotted.path → scalar`` rows.

    Numbers, booleans and strings survive (a ``same`` rule compares a
    digest); nulls are dropped. List elements are keyed by their name
    field when one of :data:`_NAME_KEYS` is present, by position
    otherwise.
    """
    out: Dict[str, object] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value[key], sub))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            key = str(i)
            if isinstance(item, dict):
                for name_key in _NAME_KEYS:
                    if isinstance(item.get(name_key), str):
                        key = item[name_key].replace(".", "_")
                        break
            sub = f"{prefix}.{key}" if prefix else key
            out.update(flatten(item, sub))
    elif isinstance(value, (bool, int, float, str)):
        out[prefix] = value
    return out


def collect_artifacts(directory: str) -> Dict[str, dict]:
    """Load every ``BENCH_*.json`` in ``directory``, keyed by stem."""
    out: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            try:
                out[stem] = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return out


def collect_figures(
    artifacts: Dict[str, dict],
    rules: Optional[Dict[str, Sequence[Rule]]] = None,
) -> Dict[str, Dict[str, Tuple[object, Rule]]]:
    """Headline figures per artifact: ``{stem: {path: (value, rule)}}``."""
    rules = rules if rules is not None else HEADLINES
    out: Dict[str, Dict[str, Tuple[object, Rule]]] = {}
    for stem, artifact in sorted(artifacts.items()):
        stem_rules = rules.get(stem)
        if not stem_rules:
            continue
        flat = flatten(artifact)
        selected: Dict[str, Tuple[object, Rule]] = {}
        for path, value in flat.items():
            for rule in stem_rules:
                if rule.matches(path):
                    selected[path] = (value, rule)
                    break
        out[stem] = selected
    return out


@dataclass
class SentinelReport:
    """Comparison outcome: one row per headline figure."""

    #: (artifact, metric, baseline, current, delta, band, status)
    rows: List[Tuple[str, str, object, object, float, float, str]] = (
        field(default_factory=list)
    )
    missing_artifacts: List[str] = field(default_factory=list)
    missing_metrics: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> List[Tuple]:
        return [r for r in self.rows if r[6] == "REGRESSED"]

    @property
    def ok(self) -> bool:
        return (
            not self.regressions
            and not self.missing_artifacts
            and not self.missing_metrics
        )

    def render(self) -> str:
        if not self.rows and not self.missing_artifacts:
            return "(no headline figures found)"
        table_rows = []
        for artifact, metric, base, cur, delta, band, status in self.rows:
            table_rows.append([
                artifact, metric,
                _fmt(base), _fmt(cur),
                f"{delta:+.3%}" if isinstance(delta, float) else str(delta),
                f"{band:.3g}" if band else "exact",
                status,
            ])
        out = format_table(
            ["artifact", "metric", "baseline", "current", "delta",
             "band", "status"],
            table_rows,
        )
        extras = []
        for stem in self.missing_artifacts:
            extras.append(f"MISSING ARTIFACT: {stem}")
        for stem, path in self.missing_metrics:
            extras.append(f"MISSING METRIC: {stem}:{path}")
        if extras:
            out += "\n" + "\n".join(extras)
        summary = (
            f"{len(self.rows)} figures checked, "
            f"{len(self.regressions)} regressed"
        )
        return out + "\n" + summary

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "rows": [list(r) for r in self.rows],
                "missing_artifacts": self.missing_artifacts,
                "missing_metrics": [list(m) for m in self.missing_metrics],
            },
            indent=indent, sort_keys=True,
        )


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def compare(
    baseline: Dict[str, dict],
    current: Dict[str, dict],
    rules: Optional[Dict[str, Sequence[Rule]]] = None,
) -> SentinelReport:
    """Compare current artifacts against the committed baseline.

    The baseline defines what must hold: every baseline headline figure
    must exist in the current artifacts and stay inside its band. Extra
    current-side figures are informational (new benchmarks are not
    regressions).
    """
    base_figures = collect_figures(baseline, rules)
    report = SentinelReport()
    for stem in sorted(base_figures):
        if stem not in current:
            report.missing_artifacts.append(stem)
            continue
        current_flat = flatten(current[stem])
        for path, (base_value, rule) in sorted(base_figures[stem].items()):
            if path not in current_flat:
                report.missing_metrics.append((stem, path))
                continue
            cur_value = current_flat[path]
            if rule.direction == "same":
                report.rows.append((
                    stem, path, base_value, cur_value, 0.0, 0.0,
                    "ok" if cur_value == base_value else "REGRESSED",
                ))
                continue
            if rule.direction == "gate":
                passed = (not bool(base_value)) or bool(cur_value)
                report.rows.append((
                    stem, path, bool(base_value), bool(cur_value), 0.0,
                    0.0, "ok" if passed else "REGRESSED",
                ))
                continue
            base_f = float(base_value)
            cur_f = float(cur_value)
            band = rule.band(base_f)
            if rule.direction == "higher":
                passed = cur_f >= base_f - band
            else:
                passed = cur_f <= base_f + band
            delta = (cur_f - base_f) / base_f if base_f else 0.0
            report.rows.append((
                stem, path, base_f, cur_f, round(delta, 12),
                round(band, 12), "ok" if passed else "REGRESSED",
            ))
    return report


def run(directory: str, baseline_dir: str,
        rules: Optional[Dict[str, Sequence[Rule]]] = None) -> SentinelReport:
    """Load + compare in one call (the CLI/CI entry point)."""
    baseline = collect_artifacts(baseline_dir)
    if not baseline:
        raise ValueError(
            f"no BENCH_*.json artifacts found in {baseline_dir!r}"
        )
    return compare(baseline, collect_artifacts(directory), rules)
