"""Tests for the benchmark regression sentinel (:mod:`repro.obs.sentinel`).

Flattening of heterogeneous BENCH schemas, rule selection and tolerance
bands, the comparison semantics (direction, gates, exact matches, missing
data), and the end-to-end contract: the committed artifacts compared
with themselves pass, an injected regression in a fixture is flagged,
every committed headline figure regresses once it leaves its band, and
what the benches' own baseline checks rejected before the sentinel took
them over still regresses.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs import sentinel
from repro.obs.sentinel import (
    HEADLINES,
    Rule,
    collect_artifacts,
    collect_figures,
    compare,
    flatten,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestFlatten:
    def test_nested_dicts(self):
        flat = flatten({"a": {"b": 1, "c": 2.5}, "d": True})
        assert flat == {"a.b": 1, "a.c": 2.5, "d": True}

    def test_strings_kept_nulls_dropped(self):
        flat = flatten({"a": "text", "b": None, "c": 3})
        assert flat == {"a": "text", "c": 3}

    def test_lists_keyed_by_name_field(self):
        flat = flatten({"tensors": [
            {"tensor": "nell-2", "speedup": 2.0},
            {"tensor": "poisson.3D", "speedup": 3.0},
        ]})
        assert flat == {
            "tensors.nell-2.speedup": 2.0,
            "tensors.nell-2.tensor": "nell-2",
            "tensors.poisson_3D.speedup": 3.0,
            "tensors.poisson_3D.tensor": "poisson.3D",
        }

    def test_lists_fall_back_to_index(self):
        assert flatten({"xs": [1, 2]}) == {"xs.0": 1, "xs.1": 2}


class TestRules:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            Rule("x", "sideways")
        with pytest.raises(ValueError):
            Rule("x", "higher", rel_tol=-0.1)

    def test_band_takes_wider_of_rel_and_abs(self):
        rule = Rule("x", "lower", rel_tol=0.1, atol=0.005)
        assert rule.band(1.0) == pytest.approx(0.1)
        assert rule.band(0.01) == pytest.approx(0.005)

    def test_fullmatch_only(self):
        rule = Rule(r"a\.b", "gate")
        assert rule.matches("a.b")
        assert not rule.matches("a.b.c")


class TestCompare:
    BASE = {"BENCH_fleet": {
        "affinity": {"latency_p99_s": 0.020, "cache_hit_rate": 0.8,
                     "deadline_hit_rate": 0.9},
        "chaos_zero_lost": True,
        "deterministic_replay": True,
    }}

    def test_identical_artifacts_pass(self):
        report = compare(self.BASE, self.BASE)
        assert report.ok
        assert all(r[6] == "ok" for r in report.rows)

    def test_gate_flip_regresses(self):
        cur = json.loads(json.dumps(self.BASE))
        cur["BENCH_fleet"]["chaos_zero_lost"] = False
        report = compare(self.BASE, cur)
        assert not report.ok
        assert any(
            r[1] == "chaos_zero_lost" and r[6] == "REGRESSED"
            for r in report.rows
        )

    def test_gate_false_baseline_never_regresses(self):
        base = json.loads(json.dumps(self.BASE))
        base["BENCH_fleet"]["chaos_zero_lost"] = False
        report = compare(base, self.BASE)
        assert report.ok

    def test_higher_metric_outside_band_regresses(self):
        cur = json.loads(json.dumps(self.BASE))
        cur["BENCH_fleet"]["affinity"]["cache_hit_rate"] = 0.70
        report = compare(self.BASE, cur)
        assert [r for r in report.regressions
                if r[1] == "affinity.cache_hit_rate"]

    def test_within_band_passes(self):
        cur = json.loads(json.dumps(self.BASE))
        cur["BENCH_fleet"]["affinity"]["cache_hit_rate"] = 0.79
        assert compare(self.BASE, cur).ok

    def test_lower_metric_band(self):
        cur = json.loads(json.dumps(self.BASE))
        # p99 band is max(0.5*0.02, 0.005) = 0.01; 0.035 is outside.
        cur["BENCH_fleet"]["affinity"]["latency_p99_s"] = 0.035
        report = compare(self.BASE, cur)
        assert [r for r in report.regressions
                if r[1] == "affinity.latency_p99_s"]
        cur["BENCH_fleet"]["affinity"]["latency_p99_s"] = 0.029
        assert compare(self.BASE, cur).ok

    def test_missing_artifact_and_metric(self):
        report = compare(self.BASE, {})
        assert report.missing_artifacts == ["BENCH_fleet"]
        assert not report.ok
        cur = {"BENCH_fleet": {"chaos_zero_lost": True}}
        report = compare(self.BASE, cur)
        assert ("BENCH_fleet", "affinity.cache_hit_rate") in (
            report.missing_metrics
        )

    def test_same_rule_matches_exactly(self):
        rules = {"BENCH_chaos": (Rule(r"search\.(digest|sims)", "same"),)}
        base = {"BENCH_chaos": {"search": {"digest": "4609bf83", "sims": 41}}}
        assert compare(base, base, rules).ok
        for digest, sims in (("4609bf84", 41), ("4609bf83", 42)):
            cur = {"BENCH_chaos": {"search": {"digest": digest, "sims": sims}}}
            report = compare(base, cur, rules)
            assert len(report.regressions) == 1

    def test_render_and_json(self):
        report = compare(self.BASE, self.BASE)
        text = report.render()
        assert "figures checked" in text
        payload = json.loads(report.to_json())
        assert payload["ok"] is True


class TestRepoArtifacts:
    def test_committed_artifacts_self_check_clean(self):
        report = sentinel.run(str(REPO_ROOT), str(REPO_ROOT))
        assert report.ok, report.render()
        # Every committed BENCH artifact with rules contributes figures.
        stems = {row[0] for row in report.rows}
        committed = set(collect_artifacts(str(REPO_ROOT))) & set(HEADLINES)
        assert stems == committed

    def test_telemetry_gates_selected(self):
        artifacts = collect_artifacts(str(REPO_ROOT))
        figures = collect_figures(artifacts)
        assert "trace_reconciles" in figures["BENCH_fleet"]
        assert "observed_run_identical" in figures["BENCH_fleet"]

    def test_resilience_figures_gated(self, tmp_path):
        artifacts = collect_artifacts(str(REPO_ROOT))
        assert set(collect_figures(artifacts)["BENCH_resilience"]) == {
            "smoke", "overhead.baseline_cycles", "overhead.rate_zero_identical",
            "overhead.replay_identical", "overhead.overhead_monotone",
            "degraded_lanes.degradation_graceful",
            "cp_resume.factors_match", "cp_resume.trace_match",
        }
        doctored = json.loads(json.dumps(artifacts["BENCH_resilience"]))
        doctored["overhead"]["baseline_cycles"] += 1
        doctored["cp_resume"]["trace_match"] = False
        (tmp_path / "BENCH_resilience.json").write_text(json.dumps(doctored))
        report = sentinel.run(str(tmp_path), baseline_dir=str(REPO_ROOT))
        assert {r[1] for r in report.regressions} == {
            "overhead.baseline_cycles", "cp_resume.trace_match",
        }

    def test_injected_regression_is_flagged(self, tmp_path):
        artifacts = collect_artifacts(str(REPO_ROOT))
        doctored = json.loads(json.dumps(artifacts["BENCH_fleet"]))
        doctored["affinity"]["cache_hit_rate"] *= 0.9  # the injected 10%
        doctored["chaos_zero_lost"] = False
        for stem, artifact in artifacts.items():
            payload = doctored if stem == "BENCH_fleet" else artifact
            (tmp_path / f"{stem}.json").write_text(json.dumps(payload))
        report = sentinel.run(str(tmp_path), baseline_dir=str(REPO_ROOT))
        regressed = {r[1] for r in report.regressions}
        assert "affinity.cache_hit_rate" in regressed
        assert "chaos_zero_lost" in regressed

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sentinel.run(str(REPO_ROOT), str(tmp_path))


def just_past(value, rule):
    """``value`` moved just outside ``rule``'s band: a gate flipped, a
    digest or count altered, a figure one ulp beyond its tolerance."""
    if rule.direction == "gate":
        return not value
    if rule.direction == "same":
        return value + "0" if isinstance(value, str) else value + 1
    return float(np.nextafter(band_edge(value, rule),
                              -np.inf if rule.direction == "higher" else np.inf))


def band_edge(value, rule):
    """The last value ``rule`` still accepts against ``value``."""
    base = float(value)
    if rule.direction == "higher":
        return base - rule.band(base)
    return base + rule.band(base)


class TestEveryHeadlineCanFail:
    """Each committed headline figure regresses just past its band and
    passes at its edge, so no rule is a gate that cannot fail. The
    artifacts are compared in their flattened form, which flattens to
    itself."""

    def figures(self):
        artifacts = collect_artifacts(str(REPO_ROOT))
        flat = {stem: flatten(a) for stem, a in artifacts.items()}
        return flat, collect_figures(artifacts)

    def regressed(self, base, stem, path, value):
        current = dict(base)
        current[stem] = {**base[stem], path: value}
        report = compare(base, current)
        assert not report.missing_artifacts and not report.missing_metrics
        return {(r[0], r[1]) for r in report.regressions}

    def test_every_figure_regresses_just_past_its_band(self):
        flat, figures = self.figures()
        exact = set()
        for stem, selected in figures.items():
            for path, (value, rule) in selected.items():
                if rule.direction == "gate":
                    assert value is True, f"{stem}:{path} cannot fail"
                if rule.direction == "same":
                    exact.add((stem, path))
                got = self.regressed(flat, stem, path, just_past(value, rule))
                assert got == {(stem, path)}, (stem, path, value)
                if rule.direction in ("higher", "lower"):
                    edge = band_edge(value, rule)
                    assert not self.regressed(flat, stem, path, edge)
        # Digests, simulation counts and run sizes are figures too,
        # compared exactly.
        assert exact == {
            ("BENCH_tune", f"kernels.{kernel}.{field}")
            for kernel in ("mttkrp", "ttmc", "spmm", "spmv")
            for field in ("trajectory_digest", "oracle_sims",
                          "grid_extra_sims")
        } | {
            ("BENCH_chaos", "search.digest"), ("BENCH_fleet", "obs.slo_digest"),
            ("BENCH_tune", "smoke"), ("BENCH_fleet", "smoke"),
            ("BENCH_chaos", "smoke"), ("BENCH_chaos", "budget"),
            ("BENCH_serving", "smoke"), ("BENCH_resilience", "smoke"),
            ("BENCH_sim", "quick"), ("BENCH_encoders", "quick"),
            ("BENCH_obs", "quick"),
        } | {
            ("BENCH_sim", f"{leg}.{field}")
            for leg, fields in (
                ("mttkrp", ("nnz", "rank")),
                ("cp_als", ("nnz", "rank", "num_iters")),
                ("engines.workload", ("nnz", "rank", "lanes")),
            )
            for field in (*fields, "shape.0", "shape.1", "shape.2")
        }


#: What the benches' own baseline checks rejected before the sentinel
#: took them over, as doctorings of one committed figure:
#: ``(artifact, path, doctored value from the committed one)``.
REPLACED_CHECKS = {
    "fleet-gate": ("BENCH_fleet", "chaos_zero_lost", lambda v: False),
    "fleet-p99": ("BENCH_fleet", "affinity.latency_p99_s",
                  lambda v: v * 1.51),
    "fleet-slo-digest": ("BENCH_fleet", "obs.slo_digest", lambda v: v[::-1]),
    "fleet-smoke": ("BENCH_fleet", "smoke", lambda v: not v),
    "chaos-gate": ("BENCH_chaos", "corpus_replay_clean", lambda v: False),
    "chaos-digest": ("BENCH_chaos", "search.digest", lambda v: v[::-1]),
    "chaos-shrink-ratio": ("BENCH_chaos", "mutation.ratio",
                           lambda v: v + 0.001),
    "chaos-smoke": ("BENCH_chaos", "smoke", lambda v: not v),
    "chaos-budget": ("BENCH_chaos", "budget", lambda v: v // 2),
    "tune-gate": ("BENCH_tune", "deterministic_all", lambda v: False),
    "tune-cycles": ("BENCH_tune", "kernels.spmv.tuned_cycles",
                    lambda v: v + 1),
    "tune-digest": ("BENCH_tune", "kernels.mttkrp.trajectory_digest",
                    lambda v: v[::-1]),
    "tune-oracle-sims": ("BENCH_tune", "kernels.ttmc.oracle_sims",
                         lambda v: v - 1),
    "tune-grid-sims": ("BENCH_tune", "kernels.spmm.grid_extra_sims",
                       lambda v: v + 1),
    "tune-smoke": ("BENCH_tune", "smoke", lambda v: not v),
    **{
        f"sim-{path}": ("BENCH_sim", path, lambda v: v * 2.01)
        for path in ("mttkrp.batched_cold_s", "mttkrp.batched_cached_s",
                     "cp_als.cached_s", "engines.total_s")
    },
    "sim-quick": ("BENCH_sim", "quick", lambda v: not v),
    "sim-shape": ("BENCH_sim", "mttkrp.shape.1", lambda v: 384),
    "sim-nnz": ("BENCH_sim", "cp_als.nnz", lambda v: v - 1),
    "sim-engine-workload": ("BENCH_sim", "engines.workload.lanes",
                            lambda v: v * 2),
}


@pytest.mark.parametrize("check", list(REPLACED_CHECKS))
def test_replaced_baseline_check_still_rejects(check):
    stem, path, doctor = REPLACED_CHECKS[check]
    base = {s: flatten(a) for s, a in collect_artifacts(str(REPO_ROOT)).items()}
    current = {**base, stem: {**base[stem], path: doctor(base[stem][path])}}
    report = compare(base, current)
    assert {(r[0], r[1]) for r in report.regressions} == {(stem, path)}
