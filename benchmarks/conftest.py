"""Shared fixtures for the benchmark harness.

Each ``benchmarks/test_*`` module regenerates one table or figure of the
paper's evaluation: it runs the simulator and baseline models, renders the
same rows/series the paper reports, asserts the paper's qualitative claims
(who wins, by roughly what factor), and records the rendered table under
``benchmarks/results/`` for EXPERIMENTS.md.

Run with ``pytest benchmarks/ --benchmark-only``. Heavy artifacts (datasets,
simulator runs, baseline workload scans) are memoized in an on-disk
:class:`repro.artifacts.ArtifactStore` (``benchmarks/.artifacts`` by
default), so a warm regeneration replays fingerprint-keyed pickles instead
of re-simulating. Harness options:

``--artifact-dir DIR``
    Store location (default ``$REPRO_ARTIFACTS_DIR`` or
    ``benchmarks/.artifacts``).
``--no-artifact-cache``
    Disable the store: regenerate everything from scratch.
``--trace-out PATH`` / ``--metrics-out PATH``
    Activate the :mod:`repro.obs` instrumentation for the whole session and
    write the Chrome trace / metrics-snapshot JSON sidecar at session end.
    Off by default (zero overhead; memoized replays also record nothing).

pytest-benchmark timings use single-round pedantic mode since each
"iteration" is itself a full simulation.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import datasets, obs
from repro.artifacts import ArtifactStore, MemoizedTensaurus, default_artifact_root
from repro.baselines import (
    CambriconXBaseline,
    CPUBaseline,
    GPUBaseline,
    T2SBaseline,
)
from repro.sim import Tensaurus
from repro.util.rng import make_rng

# pytest imports this conftest under its own rootdir-derived module name,
# while figure modules `from benchmarks.conftest import ...`. Alias the two
# so there is exactly one module instance (and one ``_STORE``): whichever
# loads first (always the conftest — pytest loads it before collection)
# registers itself as ``benchmarks.conftest``.
sys.modules.setdefault("benchmarks.conftest", sys.modules[__name__])

RESULTS_DIR = Path(__file__).parent / "results"

#: Experiment rank parameters (documented in EXPERIMENTS.md).
MTTKRP_RANK = 32
TTMC_RANKS = (32, 32)
SPMM_CNN_COLS = 256
SPMM_GRAPH_COLS = 128

#: The session's artifact store. Module-level because the dataset helpers
#: below are plain functions (imported by figure modules), not fixtures.
_STORE = ArtifactStore()


def pytest_addoption(parser):
    group = parser.getgroup("repro-regen", "figure regeneration harness")
    group.addoption(
        "--artifact-dir", default=None,
        help="artifact cache directory (default: benchmarks/.artifacts)",
    )
    group.addoption(
        "--no-artifact-cache", action="store_true", default=False,
        help="disable the on-disk artifact cache for this run",
    )
    group.addoption(
        "--trace-out", default=None,
        help="enable tracing; write Chrome trace JSON here at session end",
    )
    group.addoption(
        "--metrics-out", default=None,
        help="enable metrics; write the registry snapshot JSON here",
    )
    group.addoption(
        "--openmetrics-out", default=None,
        help="enable metrics; write a strict-parser-validated OpenMetrics "
        "text exposition here at session end",
    )


#: ``(trace_path, metrics_path, openmetrics_path)`` when the
#: ``--trace-out``/``--metrics-out``/``--openmetrics-out`` options armed
#: the session-wide observers; all None otherwise.
_OBS_OUT = (None, None, None)


def pytest_configure(config):
    global _STORE, _OBS_OUT
    root = config.getoption("--artifact-dir") or default_artifact_root()
    enabled = not config.getoption("--no-artifact-cache")
    _STORE = ArtifactStore(root=root, enabled=enabled)

    trace_out = config.getoption("--trace-out")
    metrics_out = config.getoption("--metrics-out")
    openmetrics_out = config.getoption("--openmetrics-out")
    _OBS_OUT = (trace_out, metrics_out, openmetrics_out)
    if trace_out:
        obs.set_tracer(obs.Tracer())
    if metrics_out or openmetrics_out:
        obs.set_registry(obs.MetricsRegistry())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(_STORE.report_line())
    trace_out, metrics_out, openmetrics_out = _OBS_OUT
    if trace_out:
        obs.tracer().export_chrome(trace_out)
        terminalreporter.write_line(f"wrote Chrome trace to {trace_out}")
    if metrics_out:
        with open(metrics_out, "w") as fh:
            fh.write(obs.metrics().to_json())
        terminalreporter.write_line(f"wrote metrics snapshot to {metrics_out}")
    if openmetrics_out:
        from repro.obs.export import roundtrip

        text = roundtrip(obs.metrics().snapshot())
        with open(openmetrics_out, "w") as fh:
            fh.write(text)
        terminalreporter.write_line(
            f"wrote validated OpenMetrics exposition to {openmetrics_out}"
        )


def pytest_unconfigure(config):
    if _OBS_OUT != (None, None, None):
        obs.set_tracer(None)
        obs.set_registry(None)


def artifact_store_instance() -> ArtifactStore:
    """The session's store (module-level accessor for figure modules)."""
    return _STORE


@pytest.fixture(scope="session")
def artifact_store() -> ArtifactStore:
    return _STORE


def record_result(name: str, text: str) -> None:
    """Persist a rendered result table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def run_once(benchmark, fn):
    """Time ``fn`` once through pytest-benchmark (a run is a simulation)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def make_accelerator(config=None) -> MemoizedTensaurus:
    """A memoized accelerator for ablation modules that sweep configs."""
    inner = Tensaurus(config) if config is not None else Tensaurus()
    return MemoizedTensaurus(inner, _STORE)


@pytest.fixture(scope="session")
def accelerator() -> MemoizedTensaurus:
    return make_accelerator()


@pytest.fixture(scope="session")
def cpu() -> CPUBaseline:
    return CPUBaseline()


@pytest.fixture(scope="session")
def gpu() -> GPUBaseline:
    return GPUBaseline()


@pytest.fixture(scope="session")
def cambricon() -> CambriconXBaseline:
    return CambriconXBaseline()


@pytest.fixture(scope="session")
def t2s() -> T2SBaseline:
    return T2SBaseline()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return make_rng(2020)


@functools.lru_cache(maxsize=None)
def tensor_dataset(name: str):
    return datasets.load_tensor(name, store=_STORE)


@functools.lru_cache(maxsize=None)
def matrix_dataset(name: str):
    return datasets.load_matrix(name, store=_STORE)


@functools.lru_cache(maxsize=None)
def cnn_layer(name: str):
    return datasets.load_cnn_layer(name, store=_STORE)


@functools.lru_cache(maxsize=None)
def factor_pair(rows: int, cols: int, rank: int, seed: int = 0):
    """Deterministic dense factor matrices for a kernel invocation."""
    rng = make_rng(seed)
    return rng.random((rows, rank)), rng.random((cols, rank))
