"""Host-side robustness primitives: retry policies and factor checkpoints.

The simulator's fault layer (:mod:`repro.sim.faults`) makes kernels fail
the way real hardware does — launches abort, chips die, lanes drop out.
This module holds what the *host* does about it:

- :class:`RetryPolicy` / :func:`retry_call` — bounded retries with
  deterministic exponential backoff (optionally jittered from a seed, so
  retry schedules replay exactly);
- :class:`CheckpointStore` — bounded in-memory per-iteration factor
  checkpoints for the ALS/HOOI loops, so a mid-run fault resumes from the
  last completed sweep instead of restarting.

Used by :class:`repro.sim.driver.TensaurusDevice` (watchdog + RESET-retry),
:func:`repro.factorization.accelerated.accelerated_cp_als` (checkpoint and
resume-after-fault) and :func:`repro.sim.sweep.sweep_configs` (per-point
retries and partial results).
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro import obs
from repro.util.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultError,
    RetryExhaustedError,
)
from repro.util.rng import DEFAULT_SEED, uniform

logger = obs.get_logger(__name__)

__all__ = [
    "CheckpointStore",
    "FactorCheckpoint",
    "RetryPolicy",
    "retry_call",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    ``max_retries`` counts *re*-attempts: a policy with ``max_retries=3``
    permits four executions in total. ``jitter`` randomizes delays from a
    seeded stream so backoff schedules stay reproducible run-to-run:

    - ``jitter_mode="scaled"`` scales each exponential delay by a uniform
      factor in ``[1 - jitter, 1 + jitter]``;
    - ``jitter_mode="decorrelated"`` uses the decorrelated-jitter scheme
      (each delay drawn uniformly between the base delay and three times
      the previous delay, capped), which avoids retry synchronization
      across concurrent clients while staying seed-deterministic.

    ``max_elapsed_s`` bounds the *total* time a retry loop may consume
    (attempt time plus backoff): :func:`retry_call` gives up early rather
    than start a sleep that would overshoot it — the hook request
    deadlines use so retries never outlive the request.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.0
    jitter_mode: str = "scaled"
    max_elapsed_s: Optional[float] = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.jitter_mode not in ("scaled", "decorrelated"):
            raise ConfigError(
                f"jitter_mode must be 'scaled' or 'decorrelated', "
                f"got {self.jitter_mode!r}"
            )
        if self.max_elapsed_s is not None and self.max_elapsed_s < 0:
            raise ConfigError("max_elapsed_s must be >= 0 (or None)")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (0-based)."""
        if self.jitter_mode == "decorrelated":
            # Replay the chain up to `attempt`: each delay depends on the
            # previous one, and each draw is keyed by its attempt so the
            # schedule is stable however it is queried.
            prev = self.backoff_base_s
            for a in range(attempt + 1):
                u = uniform(self.seed, "retry-decorr", a)
                hi = max(self.backoff_base_s, 3.0 * prev)
                prev = min(
                    self.max_backoff_s,
                    self.backoff_base_s + u * (hi - self.backoff_base_s),
                )
            return float(prev)
        base = min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.max_backoff_s,
        )
        if self.jitter > 0:
            u = uniform(self.seed, "retry-jitter", attempt)
            base *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return float(base)

    def delays(self) -> List[float]:
        """The full backoff schedule, one entry per permitted retry."""
        return [self.delay(a) for a in range(self.max_retries)]

    def for_deadline(self, remaining_s: float) -> "RetryPolicy":
        """This policy clamped to a remaining time budget (the tighter of
        the existing ``max_elapsed_s`` and ``remaining_s``).

        A deadline that has already elapsed raises
        :class:`~repro.util.errors.DeadlineExceededError` immediately:
        the old clamp-to-zero behavior still burned one doomed attempt
        (``retry_call`` always executes the first try before consulting
        the budget), wasting a launch on a request whose answer nobody
        is waiting for.
        """
        remaining = float(remaining_s)
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"deadline elapsed {-remaining:.3f}s ago; refusing to "
                "start a retry loop for it",
                deadline_s=remaining,
            )
        budget = remaining
        if self.max_elapsed_s is not None:
            budget = min(budget, self.max_elapsed_s)
        return dataclasses.replace(self, max_elapsed_s=budget)


def retry_call(
    fn: Callable[[int], object],
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (FaultError,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    clock: Callable[[], float] = time.monotonic,
):
    """Call ``fn(attempt)`` until it succeeds or the policy is exhausted.

    ``fn`` receives the 0-based attempt index so callers can re-seed fault
    epochs per attempt. Exceptions outside ``retry_on`` propagate
    unchanged; exhausting the policy raises :class:`RetryExhaustedError`
    chaining the last failure.

    With ``policy.max_elapsed_s`` set, the loop additionally gives up —
    *before* sleeping — once the elapsed time plus the next backoff would
    overshoot the budget, so a retried launch never outlives the request
    deadline it is serving. ``clock`` is injectable for deterministic
    tests.
    """
    last: Optional[BaseException] = None
    attempts = 0
    start = clock()
    budget = policy.max_elapsed_s
    for attempt in range(policy.max_retries + 1):
        attempts = attempt + 1
        try:
            return fn(attempt)
        except retry_on as exc:  # noqa: PERF203 - retry loop by design
            last = exc
            if attempt >= policy.max_retries:
                break
            delay = policy.delay(attempt)
            if budget is not None and (clock() - start) + delay > budget:
                raise RetryExhaustedError(
                    f"gave up after {attempts} attempt(s): time budget "
                    f"{budget:.3f}s would be overshot by the next "
                    f"{delay:.3f}s backoff: {last}",
                    attempts=attempts,
                    last_error=last,
                ) from last
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(delay)
    raise RetryExhaustedError(
        f"gave up after {attempts} attempts: {last}",
        attempts=attempts,
        last_error=last,
    ) from last


# ----------------------------------------------------------------------
# Factor checkpoints
# ----------------------------------------------------------------------
@dataclass
class FactorCheckpoint:
    """One completed iteration's factors (plus weights/core where used)."""

    iteration: int
    factors: List[np.ndarray]
    weights: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    fit: float = 0.0


class CheckpointStore:
    """Bounded in-memory checkpoint ring for iterative factorizations.

    Keeps the newest ``keep`` checkpoints (deep copies — the ALS loop
    mutates its factor list in place) plus the full per-iteration fit
    history, which survives eviction so a resumed run can stitch a
    complete ``fit_trace``.

    Optional on-disk persistence: pass an
    :class:`repro.artifacts.ArtifactStore` (plus a ``run_key`` naming the
    run) and every save is also written through to disk — atomic renames,
    each blob carrying a content fingerprint that :meth:`load_persisted`
    re-verifies, so a torn or bit-rotted checkpoint is *skipped with a
    logged warning* (falling back to the next-newest valid one) instead of
    resuming from garbage or crashing.
    """

    _NAMESPACE = "checkpoints"

    def __init__(
        self,
        keep: int = 2,
        store: Optional[Any] = None,
        run_key: str = "default",
    ) -> None:
        if keep < 1:
            raise ConfigError("keep must be >= 1")
        self.keep = int(keep)
        self.store = store
        self.run_key = str(run_key)
        self._ckpts: "OrderedDict[int, FactorCheckpoint]" = OrderedDict()
        self.fit_history: Dict[int, float] = {}
        self.saves = 0
        self.persist_failures = 0

    def __len__(self) -> int:
        return len(self._ckpts)

    def save(
        self,
        iteration: int,
        factors: List[np.ndarray],
        weights: Optional[np.ndarray] = None,
        core: Optional[np.ndarray] = None,
        fit: float = 0.0,
    ) -> FactorCheckpoint:
        ckpt = FactorCheckpoint(
            iteration=int(iteration),
            factors=[np.array(f, dtype=np.float64, copy=True) for f in factors],
            weights=None if weights is None else np.array(weights, copy=True),
            core=None if core is None else np.array(core, copy=True),
            fit=float(fit),
        )
        self._ckpts[ckpt.iteration] = ckpt
        self._ckpts.move_to_end(ckpt.iteration)
        self.fit_history[ckpt.iteration] = ckpt.fit
        self.saves += 1
        while len(self._ckpts) > self.keep:
            self._ckpts.popitem(last=False)
        if self.store is not None:
            self._persist(ckpt)
        return ckpt

    def latest(self) -> Optional[FactorCheckpoint]:
        if not self._ckpts:
            return None
        return next(reversed(self._ckpts.values()))

    def iterations(self) -> List[int]:
        return list(self._ckpts)

    def fit_trace(self) -> List[float]:
        """Fits of every iteration ever checkpointed, in iteration order."""
        return [self.fit_history[i] for i in sorted(self.fit_history)]

    # ------------------------------------------------------------------
    # Optional on-disk persistence (via repro.artifacts.ArtifactStore)
    # ------------------------------------------------------------------
    def _ckpt_digest(self, ckpt: FactorCheckpoint) -> str:
        from repro.artifacts import fingerprint_value

        return fingerprint_value(
            ckpt.iteration, ckpt.factors, ckpt.weights, ckpt.core, ckpt.fit
        )

    def _persist(self, ckpt: FactorCheckpoint) -> None:
        payload = {"digest": self._ckpt_digest(ckpt), "checkpoint": ckpt}
        written = self.store.put(
            self._NAMESPACE, (self.run_key, ckpt.iteration), payload
        )
        if written is None:
            self.persist_failures += 1
            logger.warning(
                "checkpoint %d for run %r was not persisted",
                ckpt.iteration, self.run_key,
            )
            return
        index = sorted(
            set(self.persisted_iterations()) | {ckpt.iteration}
        )
        self.store.put(self._NAMESPACE, (self.run_key, "index"), index)

    def persisted_iterations(self) -> List[int]:
        """Iterations with an on-disk checkpoint (empty without a store)."""
        if self.store is None:
            return []
        index = self.store.load(self._NAMESPACE, (self.run_key, "index"), [])
        if not isinstance(index, list):
            logger.warning(
                "corrupt checkpoint index for run %r; ignoring", self.run_key
            )
            return []
        return sorted(int(i) for i in index)

    def load_persisted(
        self, iteration: Optional[int] = None
    ) -> Optional[FactorCheckpoint]:
        """Newest valid on-disk checkpoint (or the one at ``iteration``).

        Every candidate's content fingerprint is re-verified before it is
        returned; a corrupt or tampered blob is skipped with a warning and
        the search continues with the next-newest iteration.
        """
        if self.store is None:
            return None
        candidates = (
            [int(iteration)]
            if iteration is not None
            else list(reversed(self.persisted_iterations()))
        )
        for it in candidates:
            payload = self.store.load(self._NAMESPACE, (self.run_key, it))
            if not isinstance(payload, dict) or "checkpoint" not in payload:
                logger.warning(
                    "checkpoint %d for run %r is unreadable; skipping",
                    it, self.run_key,
                )
                continue
            ckpt = payload["checkpoint"]
            try:
                ok = payload.get("digest") == self._ckpt_digest(ckpt)
            except Exception:
                ok = False
            if not ok or ckpt.iteration != it:
                logger.warning(
                    "checkpoint %d for run %r failed fingerprint "
                    "verification; skipping", it, self.run_key,
                )
                continue
            return ckpt
        return None

    def prune(self, keep_latest: Optional[int] = None) -> int:
        """Drop all but the newest ``keep_latest`` checkpoints.

        Trims both the in-memory ring and (when a store is attached) the
        persisted blobs plus their index, so long-running fleet or
        factorization loops do not grow on-disk state without bound. Fit
        history is deliberately kept — it is tiny and ``fit_trace()``
        needs the full record. Returns the number of distinct iterations
        removed. ``keep_latest=None`` prunes to ``self.keep``.
        """
        k = self.keep if keep_latest is None else int(keep_latest)
        if k < 1:
            raise ConfigError("keep_latest must be >= 1")
        dropped = set()
        while len(self._ckpts) > k:
            it, _ = self._ckpts.popitem(last=False)
            dropped.add(it)
        if self.store is not None:
            persisted = self.persisted_iterations()
            keep_set = persisted[-k:]
            stale = [i for i in persisted if i not in keep_set]
            for it in stale:
                path = self.store.path_for(
                    self._NAMESPACE, (self.run_key, it)
                )
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                dropped.add(it)
            if stale:
                self.store.put(
                    self._NAMESPACE, (self.run_key, "index"), keep_set
                )
        return len(dropped)

    def restore_persisted(self) -> Optional[FactorCheckpoint]:
        """Load the newest valid on-disk checkpoint into the in-memory ring
        (fit history included) and return it; ``None`` when nothing valid
        survives on disk."""
        ckpt = self.load_persisted()
        if ckpt is None:
            return None
        self._ckpts[ckpt.iteration] = ckpt
        self._ckpts.move_to_end(ckpt.iteration)
        self.fit_history[ckpt.iteration] = ckpt.fit
        while len(self._ckpts) > self.keep:
            self._ckpts.popitem(last=False)
        return ckpt
