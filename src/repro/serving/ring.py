"""Seeded deterministic consistent-hash ring for shard routing.

The fleet routes every request by its workload's content fingerprint so
repeat tenants land on the shard whose :class:`~repro.sim.batch.
EncodingCache` / :class:`~repro.artifacts.ArtifactStore` already hold
their data hot. Consistent hashing gives the two properties failover
needs: keys spread evenly across shards (each shard owns ``vnodes``
pseudo-random arcs of the ring), and adding or removing a shard moves
only the keys on that shard's arcs — every other key keeps its warm
cache.

All hashing goes through ``blake2b`` keyed by the ring seed: placements
never depend on Python's per-process ``hash()`` randomization, so the
same (seed, shards) lays out the identical ring in every process — the
decision-log replay gate depends on this.

A key's ring point is a pure function of the seed and the key, so
:meth:`HashRing.route` hashes each key once and memoizes the point. The
owning shard is looked up afresh on every call, since it changes with
membership.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.util.errors import ConfigError


class HashRing:
    """Consistent-hash ring mapping string keys to integer shard ids."""

    def __init__(
        self,
        shards: Iterable[int] = (),
        vnodes: int = 64,
        seed: int = 0,
    ) -> None:
        if vnodes <= 0:
            raise ConfigError("vnodes must be positive")
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        #: sorted (point, shard) pairs — the ring itself.
        self._points: List[Tuple[int, int]] = []
        self._shards: set = set()
        #: key -> its ring point (membership-independent).
        self._key_points: Dict[str, int] = {}
        for shard in shards:
            self.add(shard)

    # ------------------------------------------------------------------
    def _point(self, label: str) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def add(self, shard: int) -> None:
        """Place ``shard``'s ``vnodes`` arcs on the ring."""
        shard = int(shard)
        if shard in self._shards:
            raise ConfigError(f"shard {shard} is already on the ring")
        self._shards.add(shard)
        for v in range(self.vnodes):
            bisect.insort(
                self._points, (self._point(f"shard:{shard}:{v}"), shard)
            )

    def remove(self, shard: int) -> None:
        """Take ``shard`` off the ring; its keys redistribute to the
        immediate ring successors (everyone else's keys stay put)."""
        shard = int(shard)
        if shard not in self._shards:
            raise ConfigError(f"shard {shard} is not on the ring")
        self._shards.discard(shard)
        self._points = [(p, s) for p, s in self._points if s != shard]

    def route(self, key: str) -> int:
        """The shard owning ``key``: first ring point clockwise of it."""
        if not self._points:
            raise ConfigError("cannot route on an empty ring")
        h = self._key_points.get(key)
        if h is None:
            h = self._key_points[key] = self._point(f"key:{key}")
        idx = bisect.bisect_left(self._points, (h,))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    # ------------------------------------------------------------------
    @property
    def shards(self) -> List[int]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: int) -> bool:
        return int(shard) in self._shards

    def ownership(self, keys: Iterable[str]) -> Dict[str, int]:
        """Route many keys at once (test/diagnostic helper)."""
        return {k: self.route(k) for k in keys}

    def __repr__(self) -> str:
        return (
            f"HashRing(shards={self.shards}, vnodes={self.vnodes}, "
            f"seed={self.seed})"
        )
