"""Content-addressed on-disk artifact store for the benchmark harness.

Every figure/ablation module in ``benchmarks/`` regenerates the same
expensive intermediates: synthetic datasets, CISS encodings, baseline
workload statistics and full simulator reports. This module memoizes them
across modules *and across pytest sessions* in a directory of pickle files
keyed by content fingerprints — the same blake2b scheme
:class:`repro.sim.batch.EncodingCache` uses in memory, extended to whole
values (tensors, matrices, configs, argument tuples). A key never aliases:
it digests the operand *contents*, so regenerating with different data
misses instead of returning a stale artifact.

Pieces:

- :func:`fingerprint_value` — stable hex digest of an arbitrary composite
  of arrays / sparse operands / scalars / containers.
- :class:`ArtifactStore` — ``get(namespace, parts, builder)`` with
  hit/miss/byte counters, atomic writes and corruption-tolerant reads.
- :class:`MemoizedTensaurus` — a transparent :class:`repro.sim.Tensaurus`
  wrapper whose ``run_*`` kernels are memoized by (config, operands,
  arguments). Only fault-free reports are stored, and every hit goes
  through :meth:`repro.sim.Tensaurus.replay`, which draws the launch's
  faults from the armed :class:`FaultPlan` and sends a faulting launch
  to the live simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from repro import obs
from repro.sim.batch import fingerprint_arrays

logger = obs.get_logger(__name__)

_SCHEMA_VERSION = 1


def default_artifact_root() -> Path:
    """Store location: ``$REPRO_ARTIFACTS_DIR`` or ``benchmarks/.artifacts``."""
    env = os.environ.get("REPRO_ARTIFACTS_DIR")
    if env:
        return Path(env)
    return Path("benchmarks") / ".artifacts"


def _feed(h: "hashlib._Hash", part: Any) -> None:
    """Recursively mix one key part into the digest, type-tagged."""
    if part is None:
        h.update(b"\x00N")
    elif isinstance(part, np.ndarray):
        h.update(b"\x00A")
        h.update(fingerprint_arrays(part))
    elif isinstance(part, (bytes, bytearray)):
        h.update(b"\x00B")
        h.update(bytes(part))
    elif isinstance(part, str):
        h.update(b"\x00S")
        h.update(part.encode())
    elif isinstance(part, bool):
        h.update(b"\x00b" + (b"1" if part else b"0"))
    elif isinstance(part, (int, float, complex)):
        h.update(b"\x00n" + repr(part).encode())
    elif isinstance(part, (tuple, list)):
        h.update(b"\x00T" + str(len(part)).encode())
        for item in part:
            _feed(h, item)
    elif isinstance(part, dict):
        h.update(b"\x00D" + str(len(part)).encode())
        for key in sorted(part, key=repr):
            _feed(h, key)
            _feed(h, part[key])
    elif hasattr(part, "coords") and hasattr(part, "values"):
        # SparseTensor (duck-typed to avoid import cycles)
        h.update(b"\x00t")
        _feed(h, tuple(part.shape))
        h.update(fingerprint_arrays(part.coords, part.values))
    elif hasattr(part, "rows") and hasattr(part, "cols") and hasattr(part, "vals"):
        # COOMatrix
        h.update(b"\x00m")
        _feed(h, tuple(part.shape))
        h.update(fingerprint_arrays(part.rows, part.cols, part.vals))
    elif hasattr(part, "indptr") and hasattr(part, "indices"):
        # CSRMatrix
        h.update(b"\x00c" + type(part).__name__.encode())
        _feed(h, tuple(part.shape))
        h.update(fingerprint_arrays(part.indptr, part.indices, part.data))
    else:
        # Frozen dataclasses (TensaurusConfig, WorkloadStats, specs with
        # stable fields) fall through to their deterministic repr.
        h.update(b"\x00R")
        h.update(repr(part).encode())


def fingerprint_value(*parts: Any) -> str:
    """Stable hex digest of a composite key (arrays digested by content)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"repro-artifact-v%d" % _SCHEMA_VERSION)
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


class ArtifactStore:
    """A directory of content-fingerprint-keyed pickled artifacts.

    ``get`` either loads ``<root>/<namespace>/<digest>.pkl`` or calls the
    builder and persists its result (atomic rename, so concurrent
    processes sharing one store never observe torn files). A disabled
    store (``enabled=False``) counts misses but touches no disk — the
    escape hatch for ``--no-artifact-cache`` runs.
    """

    def __init__(self, root: os.PathLike | str | None = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_artifact_root()
        self.enabled = bool(enabled)
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_errors = 0

    # ------------------------------------------------------------------
    def path_for(self, namespace: str, parts: Iterable[Any]) -> Path:
        return self.root / namespace / f"{fingerprint_value(*parts)}.pkl"

    def get(
        self,
        namespace: str,
        parts: Iterable[Any],
        builder: Callable[[], Any],
        keep: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """Return the cached artifact for ``parts``, building it on miss.

        A built value is persisted unless ``keep`` says otherwise.
        """
        parts = tuple(parts)
        if not self.enabled:
            self.misses += 1
            return builder()
        path = self.path_for(namespace, parts)
        if path.exists():
            try:
                blob = path.read_bytes()
                value = pickle.loads(blob)
            except Exception:
                # Torn/corrupt entry (e.g. killed writer): rebuild below.
                self.read_errors += 1
            else:
                self.hits += 1
                self.bytes_read += len(blob)
                return value
        value = builder()
        self.misses += 1
        if keep is None or keep(value):
            self._write(path, value)
        return value

    def put(self, namespace: str, parts: Iterable[Any], value: Any) -> Optional[Path]:
        """Persist ``value`` under the key ``parts`` unconditionally.

        The imperative sibling of :meth:`get` for callers that produce
        values on their own schedule (checkpoint stores, decision logs).
        Returns the written path, or ``None`` when the store is disabled
        or the value is unpicklable.
        """
        if not self.enabled:
            return None
        path = self.path_for(namespace, tuple(parts))
        before = self.bytes_written
        self._write(path, value)
        return path if self.bytes_written > before else None

    def load(self, namespace: str, parts: Iterable[Any], default: Any = None) -> Any:
        """Load the artifact stored under ``parts``; ``default`` on a miss
        or on a torn/corrupt entry (counted in ``read_errors``)."""
        if not self.enabled:
            return default
        path = self.path_for(namespace, tuple(parts))
        if not path.exists():
            return default
        try:
            blob = path.read_bytes()
            value = pickle.loads(blob)
        except Exception:
            self.read_errors += 1
            return default
        self.hits += 1
        self.bytes_read += len(blob)
        return value

    def _write(self, path: Path, value: Any) -> None:
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable artifacts simply aren't persisted
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.bytes_written += len(blob)

    # ------------------------------------------------------------------
    # Namespace index: a human-readable JSON sidecar mapping entry keys
    # to metadata (the chaos regression corpus keeps its manifest here).
    # The pickled blobs stay authoritative — a torn or truncated index is
    # detected, rebuilt from the blobs on disk, and warned about, never
    # allowed to poison the store.
    # ------------------------------------------------------------------
    def index_path(self, namespace: str) -> Path:
        return self.root / namespace / "index.json"

    def write_index(self, namespace: str, entries: Dict[str, Any]) -> Optional[Path]:
        """Atomically write ``entries`` as the namespace's ``index.json``."""
        if not self.enabled:
            return None
        path = self.index_path(namespace)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(entries, indent=2, sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
        self.bytes_written += len(blob)
        return path

    def read_index(
        self,
        namespace: str,
        recover: Optional[Callable[[Path, Any], Optional[tuple]]] = None,
    ) -> Dict[str, Any]:
        """The namespace's index mapping; ``{}`` when none exists.

        A truncated / partially-written / otherwise invalid ``index.json``
        is *detected* (counted in ``read_errors``, logged as a warning)
        and the index is rebuilt from the pickled blobs on disk: each blob
        is loaded and handed to ``recover(path, value)``, which returns a
        ``(key, metadata)`` pair to re-index it under (or ``None`` to skip
        it). The rebuilt index is written back so the next reader gets a
        clean file. Without a ``recover`` hook, corruption degrades to an
        empty index — a warning, never a crash.
        """
        if not self.enabled:
            return {}
        path = self.index_path(namespace)
        if not path.exists():
            # No index at all: with a recover hook, treat a deleted /
            # never-written index the same as a corrupt one and rebuild
            # from whatever blobs exist (an empty namespace rebuilds to
            # {} without touching disk).
            if recover is not None and self.list_namespace(namespace):
                entries = self._rebuild_index(namespace, recover)
                self.write_index(namespace, entries)
                return entries
            return {}
        try:
            blob = path.read_bytes()
            entries = json.loads(blob)
            if not isinstance(entries, dict):
                raise ValueError(
                    f"index root is {type(entries).__name__}, expected object"
                )
        except Exception as exc:
            self.read_errors += 1
            logger.warning(
                "corrupt index for namespace %r (%s); rebuilding from "
                "on-disk blobs", namespace, exc,
            )
            entries = self._rebuild_index(namespace, recover)
            self.write_index(namespace, entries)
            return entries
        self.bytes_read += len(blob)
        return entries

    def _rebuild_index(
        self,
        namespace: str,
        recover: Optional[Callable[[Path, Any], Optional[tuple]]],
    ) -> Dict[str, Any]:
        entries: Dict[str, Any] = {}
        if recover is None:
            return entries
        for path in self.list_namespace(namespace):
            try:
                value = pickle.loads(path.read_bytes())
            except Exception:
                self.read_errors += 1
                logger.warning(
                    "skipping unreadable blob %s during index rebuild", path
                )
                continue
            pair = recover(path, value)
            if pair is None:
                continue
            key, meta = pair
            entries[str(key)] = meta
        logger.warning(
            "rebuilt index for namespace %r with %d entr%s",
            namespace, len(entries), "y" if len(entries) == 1 else "ies",
        )
        return entries

    # ------------------------------------------------------------------
    def list_namespace(self, namespace: str) -> list:
        """Paths of every artifact stored under ``namespace`` (sorted).

        Registries layered on the store (the tuned-config registry) use
        this to enumerate what exists without knowing the original key
        parts.
        """
        ns = self.root / namespace
        if not ns.is_dir():
            return []
        return sorted(ns.glob("*.pkl"))

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def total_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete all stored artifacts; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def report_line(self) -> str:
        """One-line summary for session logs / CI output."""
        state = "" if self.enabled else " (disabled)"
        return (
            f"artifact cache{state}: {self.hits} hits, {self.misses} misses, "
            f"{self.bytes_read / 1e6:.1f} MB read, "
            f"{self.bytes_written / 1e6:.1f} MB written, "
            f"{self.entry_count()} entries ({self.total_bytes() / 1e6:.1f} MB) "
            f"in {self.root}"
        )

    def __repr__(self) -> str:
        return (
            f"ArtifactStore(root={str(self.root)!r}, enabled={self.enabled}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _operand_key(operand: Any) -> Any:
    """Normalize a kernel operand into a fingerprintable key part."""
    if isinstance(operand, np.ndarray):
        return np.ascontiguousarray(operand, dtype=np.float64)
    return operand


class MemoizedTensaurus:
    """Transparent ``Tensaurus`` wrapper memoizing kernel reports on disk.

    Keys combine the kernel name, the config's deterministic repr and the
    content fingerprints of every operand and keyword argument, so a cached
    :class:`repro.sim.SimReport` (cycles, bytes, numeric output) is only
    replayed for an identical simulation. Only fault-free reports are
    stored, and each launch replays through
    :meth:`repro.sim.Tensaurus.replay`: it draws its faults as a live run
    would and runs live when it faults. Accelerators whose plan draws
    per-tile faults can never replay and never touch the store.

    Everything else (``config``, ``cache_info``, ``clear_cache``, ...)
    passes through to the wrapped instance.
    """

    def __init__(self, inner: Any, store: ArtifactStore):
        self._inner = inner
        self._store = store

    # ------------------------------------------------------------------
    @property
    def inner(self) -> Any:
        return self._inner

    @property
    def store(self) -> ArtifactStore:
        return self._store

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _memoized(self, kernel: str, operands: tuple, kwargs: dict, runner):
        if not self._inner.fault_state.replayable:
            return runner()
        parts = (
            "simreport",
            _SCHEMA_VERSION,
            kernel,
            repr(self._inner.config),
            tuple(_operand_key(op) for op in operands),
            {k: _operand_key(v) for k, v in kwargs.items()},
        )
        built: list = []

        def run_live():
            built.append(runner())
            return built[0]

        report = self._store.get(
            "simreport", parts, run_live, keep=lambda r: r.fault_free
        )
        if built:
            return report
        replayed = self._inner.replay(report)
        return replayed if replayed is not None else runner()

    # ------------------------------------------------------------------
    def run_mttkrp(self, tensor, mat_b, mat_c, mode=0, msu_mode="auto",
                   compute_output=True):
        kwargs = dict(mode=mode, msu_mode=msu_mode, compute_output=compute_output)
        return self._memoized(
            "mttkrp", (tensor, mat_b, mat_c), kwargs,
            lambda: self._inner.run_mttkrp(tensor, mat_b, mat_c, **kwargs),
        )

    def run_ttmc(self, tensor, mat_b, mat_c, mode=0, msu_mode="auto",
                 compute_output=True):
        kwargs = dict(mode=mode, msu_mode=msu_mode, compute_output=compute_output)
        return self._memoized(
            "ttmc", (tensor, mat_b, mat_c), kwargs,
            lambda: self._inner.run_ttmc(tensor, mat_b, mat_c, **kwargs),
        )

    def run_spmm(self, a, mat_b, msu_mode="auto", compute_output=True):
        kwargs = dict(msu_mode=msu_mode, compute_output=compute_output)
        return self._memoized(
            "spmm", (a, mat_b), kwargs,
            lambda: self._inner.run_spmm(a, mat_b, **kwargs),
        )

    def run_spmv(self, a, vec, msu_mode="auto", compute_output=True):
        kwargs = dict(msu_mode=msu_mode, compute_output=compute_output)
        return self._memoized(
            "spmv", (a, vec), kwargs,
            lambda: self._inner.run_spmv(a, vec, **kwargs),
        )

    def __repr__(self) -> str:
        return f"MemoizedTensaurus({self._inner!r}, store={self._store!r})"
