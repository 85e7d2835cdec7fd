"""DRAM stream model used for the Fig. 3e format-bandwidth experiment.

:class:`StreamMemory` services a trace of per-cycle request groups against a
single memory channel with three effects that together produce the paper's
curve:

1. **Burst granularity** — a request fetches whole bursts; a 12-byte
   extended-CSR record still occupies a 64-byte burst on the data bus, so
   scattered narrow requests waste most of the raw bandwidth.
2. **Coalescing** — requests in the same cycle that touch the same burst
   (CISS: all lanes' data is one contiguous entry) merge into one fetch.
3. **Limited outstanding requests** — with ``max_outstanding`` MSHRs and
   ``latency_cycles`` access time, achieved bandwidth is capped at
   ``outstanding * request_bytes / latency`` (Little's law), which is what
   keeps narrow-entry streams (few PEs) below peak.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.sim.config import MemoryConfig
from repro.util.errors import ConfigError

Request = Tuple[int, int]  # (address, size in bytes)


class StreamMemory:
    """Single-channel DRAM service model."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        # Built once per instance: service_trace used to rebuild this
        # tuple on every call.
        self._occupancy_buckets = tuple(
            float(b) for b in range(0, config.max_outstanding + 1)
        )

    def _occupancy_histogram(self, reg):
        return (
            reg.histogram(
                "hbm.queue_occupancy",
                "in-flight HBM requests sampled per serviced burst",
                buckets=self._occupancy_buckets,
            )
            if reg.enabled
            else None
        )

    def service_trace(self, trace: Sequence[Iterable[Request]]) -> "TraceResult":
        """Run a per-cycle request trace to completion.

        ``trace[t]`` holds the requests all consumers issue at producer
        cycle ``t`` (the trace's cycle granularity is the memory clock).
        Consumers stall when the channel back-pressures, so the trace is
        elastic: cycle ``t``'s requests enter the queue no earlier than
        cycle ``t`` and no earlier than when queue slots free up. Each
        cycle's requests coalesce into the distinct bursts they touch,
        issued in burst order; a burst waits for a free MSHR slot, then
        holds the data bus for ``burst_bytes / bytes_per_cycle`` cycles
        and completes ``latency_cycles`` later.

        Completion times are nondecreasing (issue starts are monotone),
        so the MSHRs free up in FIFO order: burst ``j`` waits on
        completion ``j - max_outstanding`` exactly. That turns the service
        loop into (a) one vectorized coalescing pass over all requests and
        (b) a scalar recurrence over the resulting burst sequence.
        """
        cfg = self.config
        burst = cfg.burst_bytes
        bus_bpc = cfg.bytes_per_cycle
        latency = cfg.latency_cycles
        slots = cfg.max_outstanding
        reg = obs.metrics()
        occupancy = self._occupancy_histogram(reg)
        groups = len(trace)
        flat: List[Request] = []
        lens: List[int] = []
        extend = flat.extend
        append = lens.append
        n0 = 0
        for group in trace:
            extend(group)
            n1 = len(flat)
            append(n1 - n0)
            n0 = n1
        useful_bytes = 0
        fetched_bytes = 0
        n_bursts = 0
        bus_free = 0.0
        last_comp = 0
        with obs.tracer().span("hbm.service_trace", args={"cycles": groups}):
            if flat:
                req_a = np.asarray(flat, dtype=np.int64)
                addr_a = req_a[:, 0]
                size_a = req_a[:, 1]
                gid_a = np.repeat(
                    np.arange(groups, dtype=np.int64),
                    np.asarray(lens, dtype=np.int64),
                )
                if np.any(size_a <= 0):
                    raise ConfigError("request size must be positive")
                useful_bytes = int(size_a.sum())
                # Expand each request into the burst range it touches,
                # then coalesce per issue group: sort by (group, burst)
                # and keep one fetch per distinct pair.
                first = addr_a // burst
                counts = (addr_a + size_a - 1) // burst - first + 1
                total = int(counts.sum())
                reps = np.repeat(np.arange(counts.size), counts)
                span_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
                burst_ids = first[reps] + (np.arange(total) - span_start[reps])
                grp = gid_a[reps]
                order = np.lexsort((burst_ids, grp))
                bs = burst_ids[order]
                gs = grp[order]
                keep = np.empty(total, dtype=bool)
                keep[0] = True
                keep[1:] = (gs[1:] != gs[:-1]) | (bs[1:] != bs[:-1])
                gseq = gs[keep]
                n_bursts = int(gseq.size)
                fetched_bytes = n_bursts * burst
                per_burst = burst / bus_bpc
                # The consumer clock ticks once per group entered (ticks
                # compound on top of waited-for completion times), then
                # waits for the oldest in-flight burst at capacity.
                comp: List[int] = [0] * n_bursts
                now = 0
                prev_g = -1
                for j, g in enumerate(gseq.tolist()):
                    now += g - prev_g
                    prev_g = g
                    if j >= slots and comp[j - slots] > now:
                        now = comp[j - slots]
                    start = now if now >= bus_free else bus_free
                    comp[j] = int(start + latency + per_burst)
                    bus_free = start + per_burst
                last_comp = comp[-1]
                now += groups - 1 - int(gseq[-1])  # trailing burst-free groups
                if occupancy is not None:
                    cap = slots - 1
                    for j in range(n_bursts):
                        occupancy.observe(j if j < cap else cap)
            else:
                now = groups
            cycles = max(now, int(last_comp), int(bus_free) + 1)
        if reg.enabled:
            reg.counter("hbm.useful_bytes", "consumer-visible bytes").inc(
                useful_bytes
            )
            reg.counter("hbm.fetched_bytes", "bus bytes incl. burst waste").inc(
                fetched_bytes
            )
        return TraceResult(
            cycles=cycles,
            useful_bytes=useful_bytes,
            fetched_bytes=fetched_bytes,
            clock_ghz=cfg.clock_ghz,
        )


class TraceResult:
    """Outcome of :meth:`StreamMemory.service_trace`."""

    def __init__(
        self, cycles: int, useful_bytes: int, fetched_bytes: int, clock_ghz: float
    ) -> None:
        self.cycles = cycles
        self.useful_bytes = useful_bytes
        self.fetched_bytes = fetched_bytes
        self.clock_ghz = clock_ghz

    @property
    def time_s(self) -> float:
        return self.cycles / (self.clock_ghz * 1.0e9)

    @property
    def achieved_gbs(self) -> float:
        """Useful (consumer-visible) bandwidth — the Fig. 3e y-axis."""
        if self.cycles == 0:
            return 0.0
        return self.useful_bytes / self.time_s / 1.0e9

    @property
    def efficiency(self) -> float:
        """Useful / fetched bytes."""
        if self.fetched_bytes == 0:
            return 0.0
        return self.useful_bytes / self.fetched_bytes

    def __repr__(self) -> str:
        return (
            f"TraceResult(cycles={self.cycles}, useful={self.useful_bytes}B, "
            f"achieved={self.achieved_gbs:.2f} GB/s)"
        )
