"""Design-space exploration: sweep configuration knobs over one workload.

The paper evaluates one design point (8x8, VLEN=4, 8 banks); this helper
re-simulates a workload across a grid of config variations so the scaling
ablations (and downstream users sizing their own deployment) get a uniform
interface: give it a base config, a dict of parameter lists, and a runner,
and it returns one record per design point.

The sweep decides itself whether to evaluate the points in-process or on
a process pool: a pool pays for its start-up only when every worker gets
at least ``_POINTS_PER_WORKER`` points, and it never gets more workers
than the CPUs this process may run on. Either way the results are the
same list in the same order.

Robustness: a point whose simulation faults (an armed
:class:`~repro.sim.faults.FaultPlan`, or any
:class:`~repro.util.errors.SimulationError`) can be retried
(``max_retries``, each attempt on a fresh fault epoch) and bounded in wall
clock (``timeout_s``). With ``allow_partial=True`` exhausted points are
recorded as :class:`SweepFailure` entries on the returned
:class:`SweepResult` instead of aborting the whole grid.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.report import SimReport
from repro.util.errors import (
    ConfigError,
    FaultError,
    RetryExhaustedError,
    SimulationError,
)

logger = obs.get_logger(__name__)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration."""

    params: Dict[str, object]
    config: TensaurusConfig
    report: SimReport


@dataclass(frozen=True)
class SweepFailure:
    """One design point the sweep could not evaluate."""

    params: Dict[str, object]
    config: TensaurusConfig
    reason: str
    attempts: int


class SweepResult(List[DesignPoint]):
    """The sweep's design points (a list, in grid order) plus bookkeeping:
    ``failures`` holds the points that exhausted their retries or timed
    out (``allow_partial=True``), ``fallback_reason`` records why a
    pooled sweep fell back to serial evaluation (unpicklable runner)."""

    def __init__(self, points: Sequence[DesignPoint] = ()) -> None:
        super().__init__(points)
        self.failures: List[SweepFailure] = []
        self.fallback_reason: Optional[str] = None


def _evaluate_point(
    config: TensaurusConfig,
    runner: Callable[[Tensaurus], SimReport],
    max_retries: int,
    timeout_s: Optional[float],
) -> Tuple[str, object, int]:
    """Run one design point, serially or in a pool worker.

    Returns ``("ok", report, attempts)`` or ``("fail", reason, attempts)``.
    Each retry runs on a fresh fault epoch, so an armed fault plan does not
    deterministically re-fail the point. The point is timed where it runs:
    one that succeeds after more than ``timeout_s`` is reported as timed
    out.
    """
    start = time.monotonic()
    last: Optional[BaseException] = None
    for attempt in range(max_retries + 1):
        try:
            report = runner(Tensaurus(config, fault_epoch=attempt))
        except (FaultError, SimulationError) as exc:
            last = exc
            continue
        elapsed = time.monotonic() - start
        if timeout_s is not None and elapsed > timeout_s:
            return (
                "fail",
                f"timeout after {timeout_s}s ({elapsed:.3f}s)",
                attempt + 1,
            )
        return ("ok", report, attempt + 1)
    return ("fail", repr(last), max_retries + 1)


#: Design points each pool worker must get before a pool beats serial
#: evaluation. Measured on a 2-core VM with the tuner's oracle runners
#: (mttkrp/nell-2, spmv/wiki-Vote): 4 points ran as fast serially as on
#: two workers, and 8 points ran faster on two workers in every pair.
_POINTS_PER_WORKER = 4


def _pool_size(points: int) -> int:
    """Workers for a sweep of ``points`` design points; below 2 the sweep
    runs serially. Counts the CPUs this process may run on, not the host's.
    """
    return min(len(os.sched_getaffinity(0)), points // _POINTS_PER_WORKER)


# The runner rides to each worker exactly once, through the pool
# initializer; per-point submissions then carry only the design-point
# config and the retry and timeout settings.
_pool_runner: Optional[Callable[[Tensaurus], SimReport]] = None


def _init_pool_worker(runner_blob: bytes) -> None:
    """Pool initializer: unpickle the sweep runner once per worker."""
    global _pool_runner
    _pool_runner = pickle.loads(runner_blob)


def _evaluate_point_pooled(
    config: TensaurusConfig, max_retries: int, timeout_s: Optional[float]
) -> Tuple[str, object, int]:
    """Worker body for pooled sweeps: uses the initializer-installed runner."""
    assert _pool_runner is not None, "pool worker initializer did not run"
    return _evaluate_point(config, _pool_runner, max_retries, timeout_s)


# Runners already warned about (unpicklable → serial fallback), so a
# many-point or repeated sweep logs the warning once per runner. Runners
# that cannot be weak-referenced warn every time.
_warned_unpicklable: "weakref.WeakSet" = weakref.WeakSet()


def _warn_unpicklable(runner: Callable, exc: Exception) -> None:
    try:
        if runner in _warned_unpicklable:
            return
        _warned_unpicklable.add(runner)
    except TypeError:
        pass
    logger.warning(
        "sweep_configs runner is not picklable; falling back to "
        "serial evaluation (%r)", exc,
    )


def sweep_configs(
    base: TensaurusConfig,
    grid: Dict[str, Sequence],
    runner: Callable[[Tensaurus], SimReport],
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    allow_partial: bool = False,
) -> SweepResult:
    """Evaluate ``runner`` at every point of the parameter grid.

    ``grid`` maps :class:`TensaurusConfig` field names to value lists; the
    sweep takes their Cartesian product. ``runner`` receives a fresh
    :class:`Tensaurus` per point and returns its :class:`SimReport`.

    A grid large enough to give every worker ``_POINTS_PER_WORKER`` points
    fans out over a process pool of up to one worker per usable CPU;
    smaller grids run in-process. Results come back in grid order either
    way, and both paths return identical lists (fault injection included:
    every point draws from streams keyed by its own config and attempt,
    never by scheduling). The runner is serialized once and handed to
    each worker through the pool initializer, so a runner closing over
    large operands costs its pickle size per worker, not per point. A
    runner that does not pickle runs serially: the sweep logs a warning
    on the ``repro.sim.sweep`` logger with the pickling error (once per
    runner) and records it as ``fallback_reason``. (Worker processes do
    not share the parent's observation state, so per-launch tracing
    covers serial sweeps only; the sweep-level span and point counters
    are always recorded in the submitting process.)

    ``max_retries`` re-attempts a faulting point (fresh fault epoch each
    time). ``timeout_s`` bounds one point's evaluation, timed where the
    point runs: a point that takes longer still runs to completion, on
    either path, and is then reported as timed out. A point that stays
    failed raises (``allow_partial=False``) or is recorded on
    ``SweepResult.failures`` (``allow_partial=True``).
    """
    if not grid:
        raise ConfigError("empty parameter grid")
    for name in grid:
        if not hasattr(base, name):
            raise ConfigError(f"unknown config field {name!r}")
    names = sorted(grid)
    combos: List[Tuple[Dict[str, object], TensaurusConfig]] = []
    for combo in itertools.product(*(grid[n] for n in names)):
        params = dict(zip(names, combo))
        combos.append((params, base.scaled(**params)))
    return _evaluate_combos(
        combos, runner, timeout_s=timeout_s,
        max_retries=max_retries, allow_partial=allow_partial,
    )


def sweep_points(
    base: TensaurusConfig,
    points: Sequence[Dict[str, object]],
    runner: Callable[[Tensaurus], SimReport],
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    allow_partial: bool = False,
) -> SweepResult:
    """Evaluate ``runner`` at an explicit list of design points.

    The non-Cartesian sibling of :func:`sweep_configs` for callers — the
    auto-tuner above all — whose candidate set is *not* a full grid: each
    entry of ``points`` is a dict of :class:`TensaurusConfig` field
    overrides applied to ``base`` (an empty dict evaluates ``base``
    itself). Results come back in ``points`` order with the same
    pool choice, retry, timeout and partial-failure semantics as
    :func:`sweep_configs`.
    """
    if not points:
        raise ConfigError("empty design-point list")
    combos = [(dict(params), base.scaled(**params)) for params in points]
    return _evaluate_combos(
        combos, runner, timeout_s=timeout_s,
        max_retries=max_retries, allow_partial=allow_partial,
    )


def _evaluate_combos(
    combos: List[Tuple[Dict[str, object], TensaurusConfig]],
    runner: Callable[[Tensaurus], SimReport],
    timeout_s: Optional[float],
    max_retries: int,
    allow_partial: bool,
) -> SweepResult:
    """Shared evaluation core of :func:`sweep_configs`/:func:`sweep_points`."""
    if max_retries < 0:
        raise ConfigError("max_retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigError("timeout_s must be positive")
    result = SweepResult()
    workers = _pool_size(len(combos))
    runner_blob = None
    if workers >= 2:
        try:
            runner_blob = pickle.dumps(runner)
        except Exception as exc:
            result.fallback_reason = repr(exc)
            _warn_unpicklable(runner, exc)
    if runner_blob is None:
        workers = 1
    point_counter = obs.metrics().counter(
        "sweep.points", "sweep design points by outcome", ("status",)
    )
    with obs.tracer().span(
        "sweep_configs", args={"points": len(combos), "workers": workers},
    ):
        if runner_blob is not None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_pool_worker,
                initargs=(runner_blob,),
            )
            try:
                futures = [
                    pool.submit(
                        _evaluate_point_pooled, config, max_retries, timeout_s
                    )
                    for _, config in combos
                ]
                outcomes = [future.result() for future in futures]
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        else:
            outcomes = []
            for params, config in combos:
                with obs.tracer().span("sweep.point", args=params):
                    outcomes.append(
                        _evaluate_point(config, runner, max_retries, timeout_s)
                    )

        for (params, config), (status, payload, attempts) in zip(
            combos, outcomes
        ):
            if status == "ok":
                point_counter.labels(status="ok").inc()
                result.append(
                    DesignPoint(params=params, config=config, report=payload)
                )
            elif allow_partial:
                point_counter.labels(status="failed").inc()
                logger.warning(
                    "design point %s failed after %d attempt(s): %s",
                    params, attempts, payload,
                )
                result.failures.append(
                    SweepFailure(
                        params=params,
                        config=config,
                        reason=str(payload),
                        attempts=attempts,
                    )
                )
            else:
                point_counter.labels(status="failed").inc()
                raise RetryExhaustedError(
                    f"design point {params} failed after {attempts} "
                    f"attempt(s): {payload}",
                    attempts=attempts,
                )
    return result

