"""Wall-clock benchmark of the format encoders and the SF3 array layout.

Measures four things and records them to ``BENCH_encoders.json``:

1. encoding time of the Fig. 8-scale Table 3 tensors into CISS / CSF /
   HiCOO, of a 4-d tensor into CISS-ND, and of a SuiteSparse matrix into
   matrix CISS (their bytes are pinned by the golden digests in
   ``tests/test_encoder_fastpath.py``);
2. the SF3 executor on the tuple-of-tuples reference layout vs the
   array-backed :class:`repro.kernels.SF3ArraySpec` (build + execute),
   asserting byte-identical outputs;
3. the ``lane_records`` / ``pe_address_trace`` memoization guard: repeated
   calls must return the cached object (identity, not equality) and cost
   asymptotically nothing next to the first call;
4. (full mode only) a cold-vs-warm wall-clock of the whole ``benchmarks/``
   suite against a fresh artifact store, demonstrating the memoized
   figure-regeneration pipeline.

Exit status is non-zero if the SF3 array layout diverges from the tuple
layout or an acceptance threshold fails. Run as
``PYTHONPATH=src python benchmarks/bench_encoders.py [--quick]``.
"""

from __future__ import annotations

import argparse
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
    """Tuple-of-tuples vs array-backed SF3 spec: build + execute."""
    scale = 0.5 if quick else 1.0
    t = datasets.load_tensor("nell-2")
    rng = np.random.default_rng(5)
    rank = max(4, int(16 * scale))
    b = rng.standard_normal((t.shape[1], rank))
    c = rng.standard_normal((t.shape[2], rank))

    out = {}
    for kernel, build in (
        ("mttkrp", lambda lay: sf3_spec_mttkrp(t, b, c, layout=lay)),
        ("ttmc", lambda lay: sf3_spec_ttmc(t, b, c, layout=lay)),
    ):
        tup_build_s, tup_spec = _best(build, "tuple")
        arr_build_s, arr_spec = _best(build, "array")
        tup_exec_s, tup_out = _best(execute_sf3, tup_spec)
        arr_exec_s, arr_out = _best(execute_sf3, arr_spec)
        out[kernel] = {
            "tuple_build_s": tup_build_s,
            "array_build_s": arr_build_s,
            "tuple_exec_s": tup_exec_s,
            "array_exec_s": arr_exec_s,
            "total_speedup": (tup_build_s + tup_exec_s)
            / (arr_build_s + arr_exec_s),
            "byte_identical": tup_out.tobytes() == arr_out.tobytes(),
        }

    m = CSRMatrix.from_coo(datasets.load_matrix("email-Enron"))
    d = rng.standard_normal((m.shape[1], rank))
    tup_build_s, tup_spec = _best(sf3_spec_spmm, m, d, layout="tuple")
    arr_build_s, arr_spec = _best(sf3_spec_spmm, m, d, layout="array")
    tup_exec_s, tup_out = _best(execute_sf3, tup_spec)
    arr_exec_s, arr_out = _best(execute_sf3, arr_spec)
    out["spmm"] = {
        "tuple_build_s": tup_build_s,
        "array_build_s": arr_build_s,
        "tuple_exec_s": tup_exec_s,
        "array_exec_s": arr_exec_s,
        "total_speedup": (tup_build_s + tup_exec_s)
        / (arr_build_s + arr_exec_s),
        "byte_identical": tup_out.tobytes() == arr_out.tobytes(),
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
            f"sf3 {kernel:<7} tuple {r['tuple_build_s'] + r['tuple_exec_s']:.3f}s "
            f"array {r['array_build_s'] + r['array_exec_s']:.4f}s "
            f"({r['total_speedup']:.1f}x) "
            f"byte_identical={r['byte_identical']}"
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
