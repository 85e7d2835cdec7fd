"""Frozen digests of what the fleet's observers derive from one replay.

Each of the 14 fleet cases of :mod:`tests.test_decision_goldens` replays
under ``obs.observe(requests=RequestTracer(seed=<case seed>),
probe=True)``. Its decision digest must still equal that case's
``GOLDEN``, and one row freezes:

- the request tracer's span digest (:meth:`RequestTracer.digest`), which
  covers every span and event of every request's tree with its ids,
  parents, virtual times and attributes;
- the number of responses :meth:`RequestTracer.reconcile` checks;
- a digest of the metrics snapshot;
- a digest of what the chaos invariants read from the probe: how many
  times each request committed, and ``(rid, shard, replica, breaker)``
  for every launch on a replica, hedge twins included. The launches
  are hashed as a sorted multiset: the order in which a primary and its
  twin are reported is not an input of any invariant.

The constants were computed before the request tracer and the probe
were fed from the fleet's decision log, and never change afterwards.
Only :func:`probe_inputs`, which reads commits and launches from the
probe, may follow the probe's record names.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro import obs
from repro.obs import RequestTracer
from tests.test_decision_goldens import (
    BUILDERS,
    GOLDEN,
    SEEDS,
    SHAPES,
    decision_digest,
    fleet_case,
)

#: case -> (span digest, reconciled responses, metrics digest, probe digest)
STREAM_GOLDEN = {
    "steady@5": (
        "581be3208a5c1e7b1bd2a48c3adfbbf8",
        404,
        "8c9a6a9c78ffc8d58806500e64ced93289185034a015346462af62c168fdf0e6",
        "a135da1b4c2213758c32898bd636054d2793e8f8c018d6210e528276ea6a4bc7",
    ),
    "steady@17": (
        "3d1e14aa968de336ec4e713e0f054050",
        419,
        "9b919cf68ea78b7e5b3ab5315ea6a5501c4ffcaacce4d22501352f66ad624bd7",
        "bc7d16207f538e9c19b3a17b6bfb95179f1bd49b652ef69f712f70e3af451498",
    ),
    "overload@5": (
        "78c6ce701c12c9ec956e6d843c511ee4",
        364,
        "80960a918f4ecac497c51a3eed368ca0b8b19b77287fcd499b3a5a2e27c8534b",
        "5d4c1d0adae847bb9600b248d76a0b5885095784656f0122416dae564256439a",
    ),
    "overload@17": (
        "ef42335f3b2e0279be39a998947bf454",
        432,
        "83dd928cadd49d7059d12a3416cbbd117811afad34f5d1a026aeff01cb8adfa6",
        "9806dece194a717050f110a2063c105419fedf56d27afbd4db6f6c6f78397fc5",
    ),
    "chaos@5": (
        "0436540a05ce48607ccc6529437c1140",
        359,
        "ebfffc41ccd992177ec443b22cb8b9bc5397773b66d9bea38e79b3c10ab94606",
        "8c46d5ab2609dbf70eac579d5a4807b64c5ffdbf3b58f0ca77c8923b3e5fd8ad",
    ),
    "chaos@17": (
        "21202dc536abc63b064ad0d4e793d7ba",
        367,
        "7cc5ba98005c103623d4eeccdb35c395eed6090d463aedef0878197ebcae004a",
        "0adb33f0d26bef2bdec7f3d6fad32403183fa1810147b766e2cc945d4af2731b",
    ),
    "lane-dropout@5": (
        "1b709960f573532c666c71d4f7292cb6",
        359,
        "654859dea851271943b24140cd791e2ecd06015dfc6c21daf585491c720eca71",
        "654fcf69d16990d6e16e78f657ea0ab6d42543825fc24b24d5e10c0ebcc5ddf5",
    ),
    "lane-dropout@17": (
        "047e0d38623a231312041754ab9bc83c",
        371,
        "0ff5c3aa186d7a6d420ca7c56057d9e3194333aae5c8ceb764a986fe82eb71df",
        "40389c7965cf117dc24cb2599c3abd8777fb88e431503c6a8b825daff54ee819",
    ),
    "random@5": (
        "bde53d488004d2f4a65fc90cdb1a8f61",
        450,
        "27afdca021438bcf973273c6705f7936a32e5b6241ca64af4297577aba67d01c",
        "915ae0989aca9bee938f58fd30623cec12f78b82f9480de160035bab71eeea8c",
    ),
    "random@17": (
        "b70be6acb2c3bdd4dfe9973060c4955e",
        484,
        "679ed5d2323d59c47774b296faa2c8fd75acb9b44377596ae868eaac0dca11d0",
        "4c05e8b6d17b38c47634cab30b9a97bec22b9458898d9e4258f25dbd0f0d49a2",
    ),
    "weighted@5": (
        "b1f1afa345a58b132521902f744076a9",
        309,
        "66e95a512cf21ebcd2e6b30263e3af4dedd8f885478256a435d91987f708f7d8",
        "e60e65850e2978995dd7979a30b62a48f5427499caf6e44b52b28d88f9c3a02c",
    ),
    "weighted@17": (
        "1ec0f8b915a4d1e93591f2feb8abdc84",
        320,
        "d88aab2310a9b9e8f551ff9fe967fe2aacdde760cc5ec19189f4a205b03893a1",
        "027eb802503926a584f6d8f9bf462d099607dcefed8cd153a47c9d380f28492e",
    ),
    "hedged-3x@5": (
        "27f45099c20bd990b4dad38fc1978133",
        794,
        "cb614753314991a05b126a8e35c204d016b002012f97ed9edd99ccf83bffe23f",
        "960e9af2dc3d50fe54241133b3e90ddb746d02b3c1218a1fccdb584dd25a9f09",
    ),
    "hedged-3x@17": (
        "ef349a5bd61f26f7a135a9a95ee784d7",
        783,
        "8eb78159c8c075eda88f86a3174562460f658a08ef7c8bd54e6a3e53f275bd3e",
        "1d86b188e176a3152895970742afb499378b30663cfc607d2855ea42ff326260",
    ),
}


def probe_inputs(probe):
    """The chaos invariants' inputs: commits per request and launches."""
    commits = Counter(ev["rid"] for ev in probe.of("complete"))
    return sorted(commits.items()), sorted(probe.launches())


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def observed_case(case: str):
    """Replay one fleet case with a request tracer and a probe installed."""
    name, seed = case.rsplit("@", 1)
    if name in BUILDERS:
        fleet, requests, kills = BUILDERS[name](int(seed))
    else:
        fleet, requests, kills = fleet_case(name, int(seed))
    with obs.observe(
        requests=RequestTracer(seed=int(seed)), probe=True
    ) as ob:
        result = fleet.run_trace(requests, kills=kills)
    return result, ob


def stream_row(result, ob):
    metrics = json.dumps(ob.registry.snapshot(), sort_keys=True, default=str)
    return (
        ob.requests.digest(),
        ob.requests.reconcile(result),
        hashlib.sha256(metrics.encode()).hexdigest(),
        sha(probe_inputs(ob.probe)),
    )


CASES = [f"{name}@{seed}" for name in (*SHAPES, *BUILDERS) for seed in SEEDS]


@pytest.mark.parametrize("case", CASES)
def test_observed_stream_is_frozen(case):
    result, ob = observed_case(case)
    assert decision_digest(result) == GOLDEN[case], f"{case}: log moved"
    assert stream_row(result, ob) == STREAM_GOLDEN[case], (
        f"{case}: digest moved"
    )
