"""Tests for the fleet's heap-indexed shard queue
(:class:`repro.serving.fleet.ShardQueue`).

Every operation is checked against :class:`ListQueue`, the plain list
with the two ``min`` scans the fleet's event loop used before the queue
was indexed, so a pick or eviction that differs from the scan fails here
before it can move a decision log.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fleet import ShardQueue
from repro.serving.request import ServingRequest

TENANTS = ("acme", "beta", "core")
#: Few distinct priorities and arrival times, so (priority, arrival_s)
#: ties are common.
PRIORITIES = (1, 2, 3)
ARRIVALS = (0.0, 0.25, 0.5)


class ListQueue:
    """The list-and-scan queue ``ShardQueue`` replaced."""

    def __init__(self) -> None:
        self.items = []

    def __len__(self) -> int:
        return len(self.items)

    def append(self, req, ep) -> None:
        self.items.append((req, ep))

    def pop_fairest(self, fairness_key):
        best_i = min(
            range(len(self.items)),
            key=lambda i: (
                fairness_key(self.items[i][0].tenant),
                -self.items[i][0].priority,
                self.items[i][0].arrival_s,
                self.items[i][0].request_id,
            ),
        )
        return self.items.pop(best_i)

    def victim(self):
        victim_i = min(
            range(len(self.items)),
            key=lambda i: (
                self.items[i][0].priority, -self.items[i][0].arrival_s,
            ),
        )
        return self.items[victim_i][0]

    def remove(self, req) -> None:
        self.items = [e for e in self.items if e[0] is not req]

    def clear(self) -> None:
        self.items.clear()


def heap_entries(queue: ShardQueue) -> int:
    return len(queue._evict) + sum(
        len(h) for h in queue._by_tenant.values()
    )


class QueuePair:
    """Applies one operation to both queues and checks they agree."""

    def __init__(self) -> None:
        self.queue = ShardQueue()
        self.ref = ListQueue()
        self.usage = {t: 0.0 for t in TENANTS}
        self.appended = 0

    def fairness_key(self, tenant: str) -> float:
        return round(self.usage[tenant], 12)

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "append":
            _, tenant, priority, arrival, ep = op
            # Unique ids out of insertion order, as re-dealt requests
            # arrive: the eviction tie rule must follow insertion, not id.
            req = ServingRequest(
                request_id=self.appended * 7919 % 100_003,
                arrival_s=arrival, kernel="spmv", workload="matrix-s",
                deadline_s=0.01, priority=priority, tenant=tenant,
            )
            self.appended += 1
            self.queue.append(req, ep)
            self.ref.append(req, ep)
        elif kind == "pop" and self.ref:
            got = self.queue.pop_fairest(self.fairness_key)
            want = self.ref.pop_fairest(self.fairness_key)
            assert got[0] is want[0] and got[1] == want[1]
        elif kind == "evict" and self.ref:
            victim = self.queue.victim()
            assert victim is self.ref.victim()
            self.queue.remove(victim)
            self.ref.remove(victim)
        elif kind == "charge":
            _, tenant, amount = op
            self.usage[tenant] += amount
        elif kind == "clear":
            self.queue.clear()
            self.ref.clear()
        assert len(self.queue) == len(self.ref)
        assert [(r.request_id, ep) for r, ep in self.queue] == [
            (r.request_id, ep) for r, ep in self.ref.items
        ]


tenant = st.sampled_from(TENANTS)
operation = st.one_of(
    st.tuples(
        st.just("append"), tenant, st.sampled_from(PRIORITIES),
        st.sampled_from(ARRIVALS), st.integers(0, 2),
    ),
    st.just(("pop",)),
    st.just(("evict",)),
    # Charges that tie tenants' fairness keys, and ones that reorder them
    # between pops.
    st.tuples(st.just("charge"), tenant, st.sampled_from((0.0, 0.5, 1.0))),
    st.just(("clear",)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operation, max_size=120))
def test_matches_list_scans(ops):
    pair = QueuePair()
    for op in ops:
        pair.apply(op)


def test_heaps_stay_bounded_over_10k_operations():
    """Lazy deletion leaves stale heap entries; the rebuild keeps them
    under ``2 * len + 32``, so the heaps hold at most ``4 * len + 32``."""
    rng = random.Random(7)
    pair = QueuePair()
    for _ in range(10_000):
        # Appends and removals in balance keep the queue short while
        # thousands of requests pass through it.
        r = rng.random()
        if r < 0.48:
            op = ("append", rng.choice(TENANTS), rng.choice(PRIORITIES),
                  rng.choice(ARRIVALS), rng.randrange(3))
        elif r < 0.76:
            op = ("pop",)
        elif r < 0.96:
            op = ("evict",)
        else:
            op = ("charge", rng.choice(TENANTS), rng.random())
        pair.apply(op)
        assert heap_entries(pair.queue) <= 4 * len(pair.queue) + 32
    # Without the rebuild, every one of these requests would have left a
    # stale entry behind.
    assert pair.appended > 4_000


def test_empty_pop_raises():
    with pytest.raises(IndexError):
        ShardQueue().pop_fairest(lambda tenant: 0.0)
