"""Every sentinel-ruled benchmark record is rebuilt in CI and compared.

``repro obs sentinel --dir bench_now --baseline .`` is the only
comparison of a fresh benchmark record with the committed one, so a
``HEADLINES`` artifact that no CI job rebuilds into ``bench_now/``
ahead of that step is compared with itself, which cannot fail. This
scans ``.github/workflows/ci.yml`` job by job, in step order: copying
the committed ``BENCH_*.json`` into ``bench_now/`` resets every record
there to the committed one, a bench run with ``--out
bench_now/BENCH_<x>.json`` makes that record fresh, and a sentinel step
against ``.`` checks the fresh ones. Each artifact, apart from
:data:`NOT_REBUILT`, must be rebuilt once in the workflow and checked
fresh.
"""

import re
from collections import Counter
from pathlib import Path

from repro.obs.sentinel import HEADLINES

REPO_ROOT = Path(__file__).resolve().parent.parent
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: Artifacts no CI job rebuilds for the sentinel, each with its reason.
NOT_REBUILT = {
    "BENCH_encoders": "its full run fails its own suite.warm_speedup gate "
    "on a 2-core machine (ROADMAP item 9); CI runs --quick",
    "BENCH_obs": "its band is one committed reading plus 0.016, and the "
    "bench's own 2% gate already judges every run",
}

RESET = re.compile(r"\bcp BENCH_\*\.json bench_now/?(\s|$)")
WRITE = re.compile(
    r"python benchmarks/bench_\w+\.py\b.*--out bench_now/(BENCH_\w+)\.json"
)
SENTINEL = re.compile(
    r"python -m repro obs sentinel --dir bench_now --baseline \.(\s|$)"
)


def jobs(text: str):
    """``{job: [command line, ...]}`` in file order."""
    out, job, in_jobs = {}, None, False
    for line in text.splitlines():
        if line.startswith("jobs:"):
            in_jobs = True
        elif in_jobs and re.fullmatch(r"  [\w-]+:", line):
            job = line.strip()[:-1]
            out[job] = []
        elif job is not None:
            out[job].append(line.strip())
    return out


def scan():
    """Artifacts a sentinel step compared fresh, and how many times each
    record was written into ``bench_now/``."""
    checked, written = set(), Counter()
    for lines in jobs(CI.read_text()).values():
        fresh = set()
        for line in lines:
            if RESET.search(line):
                fresh = set()
            elif match := WRITE.search(line):
                fresh.add(match.group(1))
                written[match.group(1)] += 1
            elif SENTINEL.search(line):
                checked |= fresh
    return checked, written


def test_every_headline_artifact_is_checked_fresh_once():
    checked, written = scan()
    assert set(NOT_REBUILT) <= set(HEADLINES)
    expected = set(HEADLINES) - set(NOT_REBUILT)
    assert checked == expected, (
        f"not checked fresh: {sorted(expected - checked)}"
    )
    assert all(written[stem] == 1 for stem in expected), written
