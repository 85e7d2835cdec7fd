"""Wall-clock benchmark of the format encoders and the SF3 executor.

Measures four things and records them to ``BENCH_encoders.json``:

1. encoding time of the Fig. 8-scale Table 3 tensors into CISS / CSF /
   HiCOO, of a 4-d tensor into CISS-ND, and of a SuiteSparse matrix into
   matrix CISS (their bytes are pinned by the golden digests in
   ``tests/test_encoder_fastpath.py``);
2. the SF3 spec builders and executor (:class:`repro.kernels.SF3Spec`,
   build + execute), checking each output against the digest frozen from
   the tuple/dict reference layout the array-backed spec replaced;
3. the ``lane_records`` / ``pe_address_trace`` memoization guard: repeated
   calls must return the cached object (identity, not equality) and cost
   asymptotically nothing next to the first call;
4. (full mode only) a cold-vs-warm wall-clock of the whole ``benchmarks/``
   suite against a fresh artifact store, demonstrating the memoized
   figure-regeneration pipeline.

Exit status is non-zero if an SF3 output moves off its frozen digest or
an acceptance threshold fails. Run as
``PYTHONPATH=src python benchmarks/bench_encoders.py [--quick]``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import datasets
from repro.datasets.generators import random_sparse_tensor_nd
from repro.formats.ciss import CISSMatrix, CISSTensor
from repro.formats.ciss_nd import CISSTensorND
from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.formats.hicoo import HiCOOTensor
from repro.kernels.sf3 import (
    execute_sf3,
    sf3_spec_mttkrp,
    sf3_spec_spmm,
    sf3_spec_ttmc,
)

NUM_LANES = 8

#: Benchmarked Table 3 tensors (Fig. 8 scale). ``--quick`` keeps the two
#: cheaper ones; the full run adds poisson3D and the warm/cold phase.
FIG8_TENSORS = ("nell-2", "netflix", "poisson3D")
QUICK_TENSORS = ("nell-2", "netflix")

#: sha256 of the SF3 executor's output per run size and kernel, computed
#: on the tuple/dict reference spec layout before it was deleted.
SF3_DIGEST = {
    "full": {
        "mttkrp": "8bc086239af80b7cbc3323d92e37ea1d628162a42f703c4df4df9048b794b9fd",
        "ttmc": "85bdcea7c3c23c87c148d6ffc027f5fbf7d68b9a771f3138ce32e3db223d4bb0",
        "spmm": "500c409abd27d5a395c43e4b4eaceb412dff7a4a91fd371f72f0835fc1730336",
    },
    "quick": {
        "mttkrp": "55b5520dad7feb5ac3ab8bbf90f2a9038f9085bb2b9b6f63e8ef37eb53f747e7",
        "ttmc": "feb05a729951f83f6e5ae20497cdfe1f6d9ff927543085261e5af5d68aed933e",
        "spmm": "7b69c668b5c88dd495c8ba58c924f6bb257281f9c25e4e3b9fb6c1be465bcdc4",
    },
}


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def _best(fn, *args, repeats=5, **kwargs):
    """Best-of-N timing (encodes are deterministic; min kills jitter)."""
    times = []
    result = None
    for _ in range(repeats):
        elapsed, result = _timed(fn, *args, **kwargs)
        times.append(elapsed)
    return min(times), result


def bench_tensor_encoders(names):
    """CISS/CSF/HiCOO encoding of the Table 3 tensors."""
    rows = []
    for name in names:
        t = datasets.load_tensor(name)
        rows.append({
            "tensor": name,
            "dims": list(t.shape),
            "nnz": t.nnz,
            "ciss_s": _best(CISSTensor.from_sparse, t, NUM_LANES)[0],
            "csf_s": _best(CSFTensor.from_sparse, t)[0],
            "hicoo_s": _best(HiCOOTensor.from_sparse, t)[0],
        })
    return rows


def bench_nd_encoder(quick):
    """CISS-ND on a FROSTT-proportioned 4-d tensor."""
    if quick:
        t = random_sparse_tensor_nd((200, 400, 300, 20), 20_000, seed=3)
        name = "synthetic-4d"
    else:
        name = "delicious-4d"
        t = datasets.load_tensor_4d(name)
    return {
        "tensor": name,
        "dims": list(t.shape),
        "nnz": t.nnz,
        "encode_s": _best(CISSTensorND.from_sparse, t, NUM_LANES)[0],
    }


def bench_matrix_encoder(quick):
    """Matrix CISS on a SuiteSparse graph."""
    name = "email-Enron" if quick else "amazon0312"
    m = datasets.load_matrix(name)
    return {
        "matrix": name,
        "dims": list(m.shape),
        "nnz": m.nnz,
        "encode_s": _best(CISSMatrix.from_coo, m, NUM_LANES)[0],
    }


def bench_sf3(quick):
    """SF3 spec build + execute, checked against the frozen digests."""
    scale = 0.5 if quick else 1.0
    golden = SF3_DIGEST["quick" if quick else "full"]
    t = datasets.load_tensor("nell-2")
    rng = np.random.default_rng(5)
    rank = max(4, int(16 * scale))
    b = rng.standard_normal((t.shape[1], rank))
    c = rng.standard_normal((t.shape[2], rank))
    m = CSRMatrix.from_coo(datasets.load_matrix("email-Enron"))
    d = rng.standard_normal((m.shape[1], rank))

    out = {}
    for kernel, build, operands in (
        ("mttkrp", sf3_spec_mttkrp, (t, b, c)),
        ("ttmc", sf3_spec_ttmc, (t, b, c)),
        ("spmm", sf3_spec_spmm, (m, d)),
    ):
        build_s, spec = _best(build, *operands)
        exec_s, result = _best(execute_sf3, spec)
        out[kernel] = {
            "build_s": build_s,
            "exec_s": exec_s,
            "byte_identical": _digest(result) == golden[kernel],
        }
    return out


def bench_lane_records():
    """Guard: repeated stream views must come from the per-object memo."""
    t = datasets.load_tensor("nell-2")
    ciss = CISSTensor.from_sparse(t, NUM_LANES)
    first_s, records = _timed(ciss.lane_records, 0)
    repeat_s = min(_timed(ciss.lane_records, 0)[0] for _ in range(5))
    cached_identity = ciss.lane_records(0) is records
    trace_first_s, trace = _timed(ciss.pe_address_trace)
    trace_repeat_s = min(_timed(ciss.pe_address_trace)[0] for _ in range(5))
    trace_identity = ciss.pe_address_trace() is trace
    return {
        "entries": ciss.num_entries,
        "first_call_s": first_s,
        "repeat_call_s": repeat_s,
        "repeat_speedup": first_s / max(repeat_s, 1e-9),
        "cached_identity": cached_identity,
        "trace_first_s": trace_first_s,
        "trace_repeat_s": trace_repeat_s,
        "trace_identity": trace_identity,
    }


def bench_warm_vs_cold():
    """Cold vs warm wall-clock of the full benchmarks/ suite (full mode)."""
    art_dir = Path(tempfile.mkdtemp(prefix="bench-art-"))
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/", "-q",
        "-p", "no:cacheprovider", f"--artifact-dir={art_dir}",
    ]
    try:
        cold_s, cold = _timed(
            subprocess.run, cmd, env=env, capture_output=True
        )
        warm_s, warm = _timed(
            subprocess.run, cmd, env=env, capture_output=True
        )
    finally:
        shutil.rmtree(art_dir, ignore_errors=True)
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "cold_exit": cold.returncode,
        "warm_exit": warm.returncode,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_encoders.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads, skip the warm/cold suite phase (CI smoke)",
    )
    args = parser.parse_args()

    names = QUICK_TENSORS if args.quick else FIG8_TENSORS
    results = {
        "quick": args.quick,
        "num_lanes": NUM_LANES,
        "tensors": bench_tensor_encoders(names),
        "ciss_nd": bench_nd_encoder(args.quick),
        "matrix": bench_matrix_encoder(args.quick),
        "sf3": bench_sf3(args.quick),
        "lane_records": bench_lane_records(),
    }
    if not args.quick:
        results["suite"] = bench_warm_vs_cold()
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    for entry in results["tensors"]:
        print(
            f"{entry['tensor']:<10} ciss {entry['ciss_s']:.4f}s "
            f"csf {entry['csf_s']:.4f}s hicoo {entry['hicoo_s']:.4f}s"
        )
    nd = results["ciss_nd"]
    print(f"{nd['tensor']:<10} cissnd {nd['encode_s']:.4f}s")
    mx = results["matrix"]
    print(f"{mx['matrix']:<10} matrix {mx['encode_s']:.4f}s")
    for kernel, r in results["sf3"].items():
        print(
            f"sf3 {kernel:<7} build {r['build_s']:.4f}s "
            f"exec {r['exec_s']:.4f}s byte_identical={r['byte_identical']}"
        )
    lr = results["lane_records"]
    print(
        f"lane_records: first {lr['first_call_s']:.4f}s repeat "
        f"{lr['repeat_call_s']:.2e}s ({lr['repeat_speedup']:.0f}x), "
        f"cached_identity={lr['cached_identity']} "
        f"trace_identity={lr['trace_identity']}"
    )
    if "suite" in results:
        s = results["suite"]
        print(
            f"benchmarks/ suite: cold {s['cold_s']:.1f}s warm {s['warm_s']:.1f}s "
            f"({s['warm_speedup']:.1f}x), exits {s['cold_exit']}/{s['warm_exit']}"
        )

    ok = all(r["byte_identical"] for r in results["sf3"].values())
    ok = ok and lr["cached_identity"] and lr["trace_identity"]
    ok = ok and lr["repeat_speedup"] >= 10.0
    if not args.quick:
        ok = ok and results["suite"]["cold_exit"] == 0
        ok = ok and results["suite"]["warm_exit"] == 0
        ok = ok and results["suite"]["warm_speedup"] >= 3.0
    print(f"wrote {args.out}")
    if not ok:
        print("FAILED acceptance thresholds")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
