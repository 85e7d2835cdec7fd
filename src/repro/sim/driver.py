"""Co-processor driver: the configuration-instruction interface.

Section 6: "Tensaurus is attached to a CPU as a co-processor, where the
CPU executes instructions to configure Tensaurus to run a specific tensor
kernel. The configuration instructions configure Tensaurus for: (1) mode
of operation like SpMTTKRP, SpMM, etc. and (2) size of tensors and
matrices."

This module models that boundary: a small register-level instruction set
(:class:`Instruction` / :class:`Opcode`), a :class:`TensaurusDevice` that
validates and executes instruction programs against the simulator, and
assembler helpers that emit the canonical program for each kernel. The
device checks what real driver code would have to get right — operands
bound before launch, declared sizes matching the bound operands, a
configured mode — and surfaces violations as :class:`ProgramError`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.resilience import RetryPolicy, retry_call
from repro.kernels.spec import kernel_spec
from repro.sim.accelerator import Tensaurus, launch
from repro.sim.config import TensaurusConfig
from repro.sim.faults import LAUNCH_ABORT, WATCHDOG, FaultEvent, FaultPlan
from repro.sim.report import SimReport
from repro.tensor import SparseTensor
from repro.util.errors import (
    CancelledError,
    DeadlineExceededError,
    FaultError,
    KernelError,
    ReproError,
    SimulationError,
)

logger = obs.get_logger(__name__)


class ProgramError(ReproError, ValueError):
    """An instruction program is malformed or inconsistent."""


class Opcode(enum.Enum):
    """The configuration instruction set."""

    SET_MODE = "set_mode"  # operand: kernel name (Table 1)
    SET_DIMS = "set_dims"  # operand: tensor/matrix dimensions
    SET_RANKS = "set_ranks"  # operand: (F,) or (F1, F2) or (N,)
    SET_TARGET_MODE = "set_target_mode"  # operand: MTTKRP/TTMc mode index
    SET_MSU_MODE = "set_msu_mode"  # operand: buffered | direct | auto
    BIND_OPERAND = "bind_operand"  # operand: (slot, data)
    LAUNCH = "launch"  # no operand
    RESET = "reset"  # no operand


@dataclass(frozen=True)
class Instruction:
    """One configuration instruction."""

    opcode: Opcode
    operand: object = None

    def __repr__(self) -> str:
        return f"Instruction({self.opcode.value}, {self.operand!r})"


#: Operand slots the MLU/TLU read from.
SLOT_SPARSE = "sparse"  # the first (possibly sparse) operand
SLOT_DENSE_B = "dense_b"  # fiber1 source / SpMM right operand
SLOT_DENSE_C = "dense_c"  # fiber0 source (tensor kernels)
SLOT_VECTOR = "vector"  # SpMV/GEMV right operand

OperandData = Union[SparseTensor, CSRMatrix, COOMatrix, np.ndarray]


@dataclass
class DeviceState:
    """The device's architectural registers (what SET_* writes)."""

    kernel: Optional[str] = None
    dims: Optional[Tuple[int, ...]] = None
    ranks: Optional[Tuple[int, ...]] = None
    target_mode: int = 0
    msu_mode: str = "auto"
    operands: Dict[str, OperandData] = field(default_factory=dict)


class TensaurusDevice:
    """The accelerator behind its driver-visible instruction interface.

    Robustness knobs (all optional, all off by default):

    - ``fault_plan`` arms the simulator's fault-injection layer;
    - ``watchdog_timeout_s`` bounds a launch's host wall-clock; a breach
      is surfaced as a :class:`FaultError` (and retried like one);
    - ``retry_policy`` turns launch faults into RESET-and-retry with
      backoff: the device resets the accelerator (cache cleared, fault
      epoch advanced so the retry re-draws its faults), sleeps the
      policy's delay, and relaunches — raising
      :class:`~repro.util.errors.RetryExhaustedError` when the policy
      runs out. With no policy, faults propagate unchanged (the
      pre-resilience behaviour);
    - ``deadline_s`` bounds a launch end-to-end (all attempts plus
      backoff): a breach raises
      :class:`~repro.util.errors.DeadlineExceededError` — which is *not*
      retried — and the retry policy's time budget is clamped to the
      remaining headroom so backoff never overshoots the deadline;
    - ``cancel_check`` is polled before every attempt; returning True
      aborts the launch with :class:`~repro.util.errors.CancelledError`
      (the hook the serving layer's hedged-launch cancellation uses).

    ``clock`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        config: Optional[TensaurusConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        watchdog_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._accelerator = Tensaurus(config, fault_plan=fault_plan)
        self._state = DeviceState()
        self._launch_count = 0
        self._watchdog_timeout_s = watchdog_timeout_s
        self._retry_policy = retry_policy
        self._deadline_s = deadline_s
        self._cancel_check = cancel_check
        self._clock = clock
        self._sleep = sleep
        self.stats: Dict[str, int] = {
            "launches": 0,
            "faults": 0,
            "retries": 0,
            "watchdog_trips": 0,
            "resets": 0,
            "deadline_misses": 0,
            "cancellations": 0,
        }
        self.fault_log: List[FaultEvent] = []

    @property
    def deadline_s(self) -> Optional[float]:
        return self._deadline_s

    def set_deadline(self, deadline_s: Optional[float]) -> None:
        """Set/clear the per-launch wall-clock budget for future launches."""
        self._deadline_s = deadline_s

    # ------------------------------------------------------------------
    @property
    def state(self) -> DeviceState:
        return self._state

    @property
    def accelerator(self) -> Tensaurus:
        return self._accelerator

    @property
    def launches(self) -> int:
        return self._launch_count

    def reset(self) -> None:
        """RESET semantics: clear the device registers and put the
        accelerator back in a clean state (cache dropped, fault epoch
        advanced so post-reset launches draw fresh fault streams)."""
        self._state = DeviceState()
        self._reset_accelerator()

    def _reset_accelerator(self) -> None:
        self._bump("resets")
        logger.info("accelerator reset (cache cleared, fault epoch advanced)")
        self._accelerator.clear_cache()
        self._accelerator.advance_fault_epoch()

    def _bump(self, key: str) -> None:
        """Count a driver event in ``stats`` and mirror it into the
        active metrics registry (as ``driver.<key>``)."""
        self.stats[key] += 1
        reg = obs.metrics()
        if reg.enabled:
            reg.counter(f"driver.{key}", f"driver {key}").inc()

    # ------------------------------------------------------------------
    def execute(self, program: List[Instruction]) -> List[SimReport]:
        """Run a program; every LAUNCH appends a report."""
        reports: List[SimReport] = []
        for position, inst in enumerate(program):
            try:
                result = self._step(inst)
            except ProgramError as exc:
                raise ProgramError(f"at instruction {position}: {exc}") from exc
            if result is not None:
                reports.append(result)
        return reports

    def _step(self, inst: Instruction) -> Optional[SimReport]:
        op = inst.opcode
        if op is Opcode.RESET:
            self.reset()
            return None
        if op is Opcode.SET_MODE:
            # The mode register selects sparse or dense, so it takes a
            # Table 1 report name, never a bare family name.
            kernel = str(inst.operand).lower()
            try:
                spec = kernel_spec(kernel)
            except KernelError:
                spec = None
            if spec is None or kernel not in (spec.sparse, spec.dense):
                raise ProgramError(f"unknown kernel {inst.operand!r}")
            self._state.kernel = kernel
            return None
        if op is Opcode.SET_DIMS:
            dims = tuple(int(d) for d in inst.operand)
            if any(d <= 0 for d in dims):
                raise ProgramError(f"dimensions must be positive, got {dims}")
            self._state.dims = dims
            return None
        if op is Opcode.SET_RANKS:
            ranks = tuple(int(r) for r in inst.operand)
            if any(r <= 0 for r in ranks):
                raise ProgramError(f"ranks must be positive, got {ranks}")
            self._state.ranks = ranks
            return None
        if op is Opcode.SET_TARGET_MODE:
            mode = int(inst.operand)
            if not 0 <= mode < 3:
                raise ProgramError(f"target mode {mode} out of range")
            self._state.target_mode = mode
            return None
        if op is Opcode.SET_MSU_MODE:
            mode = str(inst.operand)
            if mode not in ("buffered", "direct", "auto"):
                raise ProgramError(f"unknown MSU mode {inst.operand!r}")
            self._state.msu_mode = mode
            return None
        if op is Opcode.BIND_OPERAND:
            slot, data = inst.operand
            if slot not in (SLOT_SPARSE, SLOT_DENSE_B, SLOT_DENSE_C, SLOT_VECTOR):
                raise ProgramError(f"unknown operand slot {slot!r}")
            _check_operand_data(slot, data)
            self._state.operands[slot] = data
            return None
        if op is Opcode.LAUNCH:
            return self._launch()
        raise ProgramError(f"unknown opcode {op!r}")

    # ------------------------------------------------------------------
    def _launch(self) -> SimReport:
        st = self._state
        if st.kernel is None:
            raise ProgramError("LAUNCH before SET_MODE")
        if st.dims is None:
            raise ProgramError("LAUNCH before SET_DIMS")
        sparse = st.operands.get(SLOT_SPARSE)
        if sparse is None:
            raise ProgramError("no operand bound to the sparse/tensor slot")
        self._check_dims(sparse, st.dims)
        self._launch_count += 1
        self._bump("launches")
        kernel = st.kernel
        spec = kernel_spec(kernel)
        if spec.order == 3:
            b = st.operands.get(SLOT_DENSE_B)
            c = st.operands.get(SLOT_DENSE_C)
            if b is None or c is None:
                raise ProgramError(f"{kernel} needs dense operands B and C")
            if st.ranks is None:
                raise ProgramError(f"{kernel} needs SET_RANKS")
            self._check_ranks(spec.name, st.ranks, b, c)
            dense = (b, c)
        elif spec.name == "spmm":
            b = st.operands.get(SLOT_DENSE_B)
            if b is None:
                raise ProgramError(f"{kernel} needs a dense operand B")
            dense = (b,)
        else:
            x = st.operands.get(SLOT_VECTOR)
            if x is None:
                raise ProgramError(f"{kernel} needs a vector operand")
            dense = (x,)

        def run() -> SimReport:
            return launch(
                self._accelerator, kernel, sparse, dense,
                mode=st.target_mode, msu_mode=st.msu_mode,
            )

        return self._guarded_run(run)

    def _guarded_run(self, run: Callable[[], SimReport]) -> SimReport:
        """Execute one launch under the watchdog; with a retry policy,
        RESET-and-retry on faults instead of propagating them. Every
        attempt first passes the cancellation and deadline gates — a
        cancelled or past-deadline launch aborts instead of retrying."""

        launch_start = self._clock()

        def check_abort() -> None:
            if self._cancel_check is not None and self._cancel_check():
                self._bump("cancellations")
                logger.info("launch %d cancelled by host", self._launch_count)
                raise CancelledError(
                    f"launch {self._launch_count} cancelled by host"
                )
            deadline = self._deadline_s
            if deadline is not None:
                elapsed = self._clock() - launch_start
                if elapsed > deadline:
                    self._bump("deadline_misses")
                    logger.warning(
                        "launch %d missed its %.3fs deadline (%.3fs elapsed)",
                        self._launch_count, deadline, elapsed,
                    )
                    raise DeadlineExceededError(
                        f"launch {self._launch_count} exceeded its "
                        f"{deadline:.3f}s deadline ({elapsed:.3f}s elapsed)",
                        deadline_s=deadline,
                    )

        def attempt(attempt_idx: int) -> SimReport:
            check_abort()
            start = self._clock()
            span_args = {
                "launch": self._launch_count, "attempt": attempt_idx,
            }
            # When a fleet request is being served, stamp its trace id
            # on the launch span so host flamegraphs join against the
            # request tree.
            context = obs.current_context()
            if context is not None:
                span_args["trace_id"], span_args["span_id"] = context
            try:
                with obs.tracer().span("driver.launch", args=span_args):
                    report = run()
            except (FaultError, SimulationError) as exc:
                self._bump("faults")
                logger.warning(
                    "launch %d attempt %d faulted: %s",
                    self._launch_count, attempt_idx, exc,
                )
                self.fault_log.append(
                    FaultEvent(
                        LAUNCH_ABORT,
                        ("launch", self._launch_count),
                        info=str(exc),
                    )
                )
                raise
            elapsed = self._clock() - start
            timeout = self._watchdog_timeout_s
            if timeout is not None and elapsed > timeout:
                self._bump("watchdog_trips")
                logger.warning(
                    "watchdog tripped on launch %d: %.3fs > %.3fs",
                    self._launch_count, elapsed, timeout,
                )
                self.fault_log.append(
                    FaultEvent(
                        WATCHDOG,
                        ("launch", self._launch_count),
                        info=f"{elapsed:.3f}s > {timeout:.3f}s",
                    )
                )
                raise FaultError(
                    f"watchdog: launch took {elapsed:.3f}s "
                    f"(timeout {timeout:.3f}s)"
                )
            return report

        if self._retry_policy is None:
            return attempt(0)

        def on_retry(attempt_idx: int, exc: BaseException) -> None:
            self._bump("retries")
            logger.info(
                "retrying launch %d after fault (attempt %d): %s",
                self._launch_count, attempt_idx, exc,
            )
            self._reset_accelerator()

        policy = self._retry_policy
        if self._deadline_s is not None:
            # Retries may never outlive the launch deadline: clamp the
            # policy's elapsed-time budget to the remaining headroom.
            policy = policy.for_deadline(
                self._deadline_s - (self._clock() - launch_start)
            )
        return retry_call(
            attempt,
            policy,
            retry_on=(FaultError, SimulationError),
            sleep=self._sleep,
            on_retry=on_retry,
            clock=self._clock,
        )

    @staticmethod
    def _check_dims(operand: OperandData, dims: Tuple[int, ...]) -> None:
        actual = tuple(operand.shape)
        if actual != dims:
            raise ProgramError(
                f"declared dims {dims} do not match bound operand {actual}"
            )
        _check_coords_in_range(operand, dims)

    @staticmethod
    def _check_ranks(
        family: str, ranks: Tuple[int, ...], b: np.ndarray, c: np.ndarray
    ) -> None:
        if family == "mttkrp":
            if len(ranks) != 1:
                raise ProgramError("MTTKRP takes a single rank F")
            if b.shape[1] != ranks[0] or c.shape[1] != ranks[0]:
                raise ProgramError(
                    f"rank {ranks[0]} does not match factor widths "
                    f"{b.shape[1]}/{c.shape[1]}"
                )
        else:
            if len(ranks) != 2:
                raise ProgramError("TTMc takes ranks (F1, F2)")
            if b.shape[1] != ranks[0] or c.shape[1] != ranks[1]:
                raise ProgramError(
                    f"ranks {ranks} do not match factor widths "
                    f"({b.shape[1]}, {c.shape[1]})"
                )


# ----------------------------------------------------------------------
# Operand hardening: catch NaN/Inf payloads and out-of-range coordinates
# at the driver boundary, before they turn into garbage cycle counts or
# numpy errors deep in the PE loop.
# ----------------------------------------------------------------------
def _operand_value_array(data: object) -> Optional[np.ndarray]:
    """The numeric payload of an operand, whatever its container type."""
    if isinstance(data, SparseTensor):
        return data.values
    if isinstance(data, COOMatrix):
        return data.vals
    if isinstance(data, CSRMatrix):
        return data.data
    if isinstance(data, np.ndarray):
        return data
    return None


def _check_operand_data(slot: str, data: object) -> None:
    """Reject operands whose values are NaN/Inf with a ProgramError."""
    values = _operand_value_array(data)
    if values is None:
        return
    values = np.asarray(values)
    if values.size and not np.isfinite(values).all():
        bad = int(values.size - np.isfinite(values).sum())
        raise ProgramError(
            f"operand for slot {slot!r} contains {bad} non-finite "
            f"(NaN/Inf) value(s)"
        )


def _check_coords_in_range(operand: object, dims: Tuple[int, ...]) -> None:
    """Reject sparse operands whose coordinates escape the declared dims
    (possible via ``canonical=True`` construction or corrupted inputs)."""
    if isinstance(operand, SparseTensor):
        coords = operand.coords
        if coords.size and (
            coords.min() < 0
            or (coords.max(axis=0) >= np.asarray(dims, dtype=np.int64)).any()
        ):
            raise ProgramError(
                f"sparse operand coordinates out of range for dims {dims}"
            )
    elif isinstance(operand, COOMatrix):
        rows, cols = operand.rows, operand.cols
        if rows.size and (
            rows.min() < 0 or cols.min() < 0
            or rows.max() >= dims[0] or cols.max() >= dims[1]
        ):
            raise ProgramError(
                f"matrix operand indices out of range for dims {dims}"
            )


def _assemble_check(kernel: str, **arrays: object) -> None:
    """Assembler-side hardening shared by the four assemble_* helpers."""
    for name, data in arrays.items():
        try:
            _check_operand_data(name, data)
        except ProgramError as exc:
            raise ProgramError(f"{kernel}: {exc}") from None
    sparse = arrays.get("tensor", arrays.get("a"))
    shape = getattr(sparse, "shape", None)
    if shape is not None:
        try:
            _check_coords_in_range(sparse, tuple(shape))
        except ProgramError as exc:
            raise ProgramError(f"{kernel}: {exc}") from None


# ----------------------------------------------------------------------
# Assembler helpers: the canonical program for each kernel.
# ----------------------------------------------------------------------
def assemble_mttkrp(
    tensor: Union[SparseTensor, np.ndarray],
    mat_b: np.ndarray,
    mat_c: np.ndarray,
    mode: int = 0,
    msu_mode: str = "auto",
) -> List[Instruction]:
    """The driver program for one (Sp/D)MTTKRP launch."""
    kernel = "spmttkrp" if isinstance(tensor, SparseTensor) else "dmttkrp"
    _assemble_check(kernel, tensor=tensor, mat_b=np.asarray(mat_b),
                    mat_c=np.asarray(mat_c))
    return [
        Instruction(Opcode.SET_MODE, kernel),
        Instruction(Opcode.SET_DIMS, tuple(tensor.shape)),
        Instruction(Opcode.SET_RANKS, (np.asarray(mat_b).shape[1],)),
        Instruction(Opcode.SET_TARGET_MODE, mode),
        Instruction(Opcode.SET_MSU_MODE, msu_mode),
        Instruction(Opcode.BIND_OPERAND, (SLOT_SPARSE, tensor)),
        Instruction(Opcode.BIND_OPERAND, (SLOT_DENSE_B, np.asarray(mat_b))),
        Instruction(Opcode.BIND_OPERAND, (SLOT_DENSE_C, np.asarray(mat_c))),
        Instruction(Opcode.LAUNCH),
    ]


def assemble_ttmc(
    tensor: Union[SparseTensor, np.ndarray],
    mat_b: np.ndarray,
    mat_c: np.ndarray,
    mode: int = 0,
    msu_mode: str = "auto",
) -> List[Instruction]:
    """The driver program for one (Sp/D)TTMc launch."""
    kernel = "spttmc" if isinstance(tensor, SparseTensor) else "dttmc"
    _assemble_check(kernel, tensor=tensor, mat_b=np.asarray(mat_b),
                    mat_c=np.asarray(mat_c))
    return [
        Instruction(Opcode.SET_MODE, kernel),
        Instruction(Opcode.SET_DIMS, tuple(tensor.shape)),
        Instruction(
            Opcode.SET_RANKS,
            (np.asarray(mat_b).shape[1], np.asarray(mat_c).shape[1]),
        ),
        Instruction(Opcode.SET_TARGET_MODE, mode),
        Instruction(Opcode.SET_MSU_MODE, msu_mode),
        Instruction(Opcode.BIND_OPERAND, (SLOT_SPARSE, tensor)),
        Instruction(Opcode.BIND_OPERAND, (SLOT_DENSE_B, np.asarray(mat_b))),
        Instruction(Opcode.BIND_OPERAND, (SLOT_DENSE_C, np.asarray(mat_c))),
        Instruction(Opcode.LAUNCH),
    ]


def assemble_spmm(
    a: Union[CSRMatrix, COOMatrix, np.ndarray],
    mat_b: np.ndarray,
    msu_mode: str = "auto",
) -> List[Instruction]:
    """The driver program for one SpMM/GEMM launch."""
    kernel = "gemm" if isinstance(a, np.ndarray) else "spmm"
    _assemble_check(kernel, a=a, mat_b=np.asarray(mat_b))
    return [
        Instruction(Opcode.SET_MODE, kernel),
        Instruction(Opcode.SET_DIMS, tuple(a.shape)),
        Instruction(Opcode.SET_MSU_MODE, msu_mode),
        Instruction(Opcode.BIND_OPERAND, (SLOT_SPARSE, a)),
        Instruction(Opcode.BIND_OPERAND, (SLOT_DENSE_B, np.asarray(mat_b))),
        Instruction(Opcode.LAUNCH),
    ]


def assemble_spmv(
    a: Union[CSRMatrix, COOMatrix, np.ndarray],
    vec: np.ndarray,
    msu_mode: str = "auto",
) -> List[Instruction]:
    """The driver program for one SpMV/GEMV launch."""
    kernel = "gemv" if isinstance(a, np.ndarray) else "spmv"
    _assemble_check(kernel, a=a, vec=np.asarray(vec))
    return [
        Instruction(Opcode.SET_MODE, kernel),
        Instruction(Opcode.SET_DIMS, tuple(a.shape)),
        Instruction(Opcode.SET_MSU_MODE, msu_mode),
        Instruction(Opcode.BIND_OPERAND, (SLOT_SPARSE, a)),
        Instruction(Opcode.BIND_OPERAND, (SLOT_VECTOR, np.asarray(vec))),
        Instruction(Opcode.LAUNCH),
    ]
