"""Chaos-verification benchmark: fault-space search, shrink, corpus.

Exercises the ``repro.chaos`` subsystem end to end and records the
results to ``BENCH_chaos.json``:

1. **search** — a seeded randomized search over generated fault
   schedules, executing the deterministic serving fleet under each one
   and checking every invariant (exactly-once, no-lost-admitted-work,
   breaker safety, checkpoint/resume equivalence, determinism, trace
   reconciliation, analytic error bound) on every run. Gates: zero
   violations, every invariant checked on every schedule, and a fresh
   search from the same seed reproducing bit-identical run digests.
2. **mutation** — the same search against an intentionally broken
   runner (``drop_response`` silently discards a served response after
   a compound kill+outage schedule). Gates: the injected bug is caught,
   and delta-debugging shrinks the failing schedule to a reproducer of
   at most 25% of the original event count that still fails on the
   mutant and passes on the fixed system.
3. **corpus** — the committed regression corpus under
   ``benchmarks/chaos_corpus/`` replays with zero violations.

The bench exits nonzero unless :func:`accepted` holds for the record it
writes; ``tests/test_bench_chaos.py`` holds the committed
``BENCH_chaos.json`` to it. ``repro obs sentinel --dir bench_now
--baseline .`` compares a fresh full-size record in ``bench_now/`` with
the committed one.

Run as ``PYTHONPATH=src python benchmarks/bench_chaos.py`` (add
``--smoke`` for the short CI workload).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.artifacts import ArtifactStore, fingerprint_value
from repro.chaos import (
    DEFAULT_INVARIANTS,
    MUTATIONS,
    ChaosCorpus,
    ChaosRunner,
    ChaosSearch,
    ScheduleGenerator,
    shrink_schedule,
)

SEED = 11
#: Mutation search uses denser schedules so the armed ``drop_response``
#: bug (requires a shard kill AND an HBM outage in one schedule) fires
#: within a tiny budget.
MUTANT_SEED = 23
MUTANT_BUDGET = 4
#: Acceptance bound on the shrunk reproducer: at most this fraction of
#: the original schedule's event count.
SHRINK_RATIO_BOUND = 0.25
DEFAULT_CORPUS = Path(__file__).resolve().parent / "chaos_corpus"


def _search_digest(outcome) -> str:
    return fingerprint_value(
        "chaos-search", tuple(r["run_digest"] for r in outcome.records)
    )


def bench_search(budget: int):
    runner = ChaosRunner()
    outcome = ChaosSearch(runner, ScheduleGenerator(seed=SEED)).run(budget)
    digest = _search_digest(outcome)

    # Replay the whole search from its seed with a fresh runner and
    # generator: every run digest must come back bit-identical.
    replay = ChaosSearch(
        ChaosRunner(), ScheduleGenerator(seed=SEED)
    ).run(budget)
    replay_identical = digest == _search_digest(replay)

    all_checked = all(
        rec["checked"] == list(DEFAULT_INVARIANTS)
        for rec in outcome.records
    )
    results = {
        "search": {
            "schedules_run": outcome.schedules_run,
            "violations": outcome.violation_count,
            "elapsed_s": round(outcome.elapsed_s, 3),
            "schedules_per_s": round(outcome.schedules_per_s, 2),
            "digest": digest,
        },
        "search_zero_violations": outcome.violation_count == 0,
        "all_invariants_checked": bool(outcome.records) and all_checked,
        "replay_bit_identical": bool(replay_identical),
    }
    return runner, results


def bench_mutation():
    mutant = ChaosRunner(mutator=MUTATIONS["drop_response"])
    generator = ScheduleGenerator(
        seed=MUTANT_SEED, min_events=8, max_events=12
    )
    outcome = ChaosSearch(mutant, generator).run(MUTANT_BUDGET)
    caught = outcome.violation_count > 0
    if not caught:
        return {
            "mutation": {"failures": 0},
            "mutation_caught": False,
            "shrink_ratio_ok": False,
            "minimal_passes_clean": False,
        }

    schedule, _violations = outcome.failures[0]
    shrunk = shrink_schedule(schedule, mutant)
    still_fails = mutant.violated(
        shrunk.minimal, checkpoint=False
    ) == shrunk.target
    passes_clean = ChaosRunner().violated(shrunk.minimal) == []
    return {
        "mutation": {
            "failures": len(outcome.failures),
            "target": shrunk.target,
            "original_events": shrunk.original.event_count,
            "minimal_events": shrunk.minimal.event_count,
            "ratio": round(shrunk.ratio, 3),
            "oracle_calls": shrunk.oracle_calls,
        },
        "mutation_caught": True,
        "shrink_ratio_ok": bool(
            shrunk.ratio <= SHRINK_RATIO_BOUND and still_fails
        ),
        "minimal_passes_clean": bool(passes_clean),
    }


def bench_corpus(runner: ChaosRunner, corpus_dir: Path):
    if not corpus_dir.is_dir():
        print(f"no corpus at {corpus_dir}")
        return {
            "corpus": {"cases": 0, "regressed": 0},
            "corpus_replay_clean": False,
        }
    corpus = ChaosCorpus(ArtifactStore(corpus_dir))
    replayed = corpus.replay(runner)
    regressed = sum(1 for v in replayed.values() if v)
    return {
        "corpus": {"cases": len(replayed), "regressed": regressed},
        "corpus_replay_clean": bool(replayed) and regressed == 0,
    }


def bench_chaos(budget: int, corpus_dir: Path):
    runner, results = bench_search(budget)
    results.update(bench_mutation())
    results.update(bench_corpus(runner, corpus_dir))
    return results


#: Gates no number in the record fixes: they check every schedule, a
#: replay or the shrunk reproducer, which the record holds only as
#: booleans. ``shrink_ratio_ok`` also holds that the reproducer still
#: fails on the mutant; :func:`accepted` re-derives its ratio bound.
RECORDED_GATES = (
    "all_invariants_checked",
    "replay_bit_identical",
    "shrink_ratio_ok",
    "minimal_passes_clean",
)


def accepted(record: dict) -> bool:
    """The bench's acceptance rule over one ``BENCH_chaos.json`` record.

    Zero search violations, a caught mutation, the shrink ratio bound
    and a clean corpus replay are re-derived from the record's numbers;
    :data:`RECORDED_GATES` are read as recorded."""
    m, c = record["mutation"], record["corpus"]
    return bool(
        record["search"]["violations"] == 0
        and m["failures"] > 0
        and m["ratio"] <= SHRINK_RATIO_BOUND
        and c["cases"] > 0
        and c["regressed"] == 0
        and all(record[g] for g in RECORDED_GATES)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_chaos.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="short CI workload"
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="override the schedule budget (default 200, smoke 30)",
    )
    parser.add_argument(
        "--corpus-dir", default=str(DEFAULT_CORPUS),
        help="committed regression corpus directory",
    )
    args = parser.parse_args()

    budget = args.budget if args.budget else (30 if args.smoke else 200)
    results = {
        "smoke": args.smoke,
        "budget": budget,
        "seed": SEED,
        **bench_chaos(budget, Path(args.corpus_dir)),
    }

    s = results["search"]
    print(
        f"search:   {s['schedules_run']} schedules in {s['elapsed_s']:.1f} s "
        f"({s['schedules_per_s']:.1f}/s), {s['violations']} violations, "
        f"replay identical: {results['replay_bit_identical']}"
    )
    m = results["mutation"]
    if results["mutation_caught"]:
        print(
            f"mutation: caught in {m['failures']} schedule(s); shrunk "
            f"{m['original_events']} -> {m['minimal_events']} events "
            f"(ratio {m['ratio']}) in {m['oracle_calls']} oracle calls "
            f"for {m['target']}"
        )
    else:
        print("mutation: NOT caught")
    c = results["corpus"]
    print(
        f"corpus:   {c['cases']} case(s) replayed, {c['regressed']} "
        f"regressed"
    )

    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not accepted(results):
        print("FAILED acceptance gates")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
