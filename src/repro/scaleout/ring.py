"""Consistent-hash placement of consumers onto shards.

A fixed round-robin split has a fatal scaling flaw: adding one shard
reshuffles nearly every consumer to a different shard, away from the
WAL directory that holds its reading history.  Consistent
hashing with virtual nodes fixes that — each shard owns many points on a
hash ring and a consumer belongs to the first shard point clockwise from
its own hash, so adding or removing a shard only moves the consumers
that fall into the new shard's arcs: in expectation ``n / shards`` of
them, never almost all.

Placement must be a pure function of ``(seed, shard names, consumer
ids)``: a restarted fleet has to route every consumer to the shard whose
WAL holds its history, and two coordinators computing placement
independently must agree.  Hashes are therefore keyed ``blake2b`` (a
stable algorithm, unlike ``hash()`` which is salted per process), and
every tie-break below is lexicographic.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_RING_SEED",
    "DEFAULT_VNODES",
    "HashRing",
    "balanced_assignments",
]

#: Virtual nodes per shard.  More points smooth the arc-length variance
#: (relative imbalance shrinks ~ 1/sqrt(vnodes)) at O(vnodes) memory.
DEFAULT_VNODES = 64

#: Fixed placement seed.  The pinned 30-consumer routing fixture in
#: ``tests/scaleout/test_ring.py`` holds it fixed, so existing
#: ``shard-NNNN`` state directories keep routing to their own WALs.
DEFAULT_RING_SEED = 2016


def _hash64(seed: int, kind: str, text: str) -> int:
    """Stable 64-bit hash of one ring point or consumer key."""
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{text}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring mapping consumer ids to shard names.

    Parameters
    ----------
    shards:
        Initial shard names (order-insensitive; the ring is a pure
        function of the *set* of names).
    vnodes:
        Virtual nodes per shard.
    seed:
        Hash seed; two rings agree on placement iff their seeds,
        vnodes, and shard sets agree.
    """

    def __init__(
        self,
        shards: Iterable[str] = (),
        vnodes: int = DEFAULT_VNODES,
        seed: int = DEFAULT_RING_SEED,
    ) -> None:
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        self._points: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        self._shards: set[str] = set()
        for name in shards:
            self.add_shard(name)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Current shard names, sorted."""
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def add_shard(self, name: str) -> None:
        if not name:
            raise ConfigurationError("shard name must be non-empty")
        if name in self._shards:
            raise ConfigurationError(f"shard {name!r} already on the ring")
        self._shards.add(name)
        for replica in range(self.vnodes):
            point = _hash64(self.seed, "vnode", f"{name}#{replica}")
            self._points.append((point, name))
        # Sorting by (hash, name) makes even a full 64-bit collision
        # between two shards' points resolve deterministically.
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def key_hash(self, consumer_id: str) -> int:
        return _hash64(self.seed, "key", consumer_id)

    def owner(self, consumer_id: str) -> str:
        """The shard owning ``consumer_id``: first ring point clockwise."""
        if not self._points:
            raise ConfigurationError("the ring has no shards")
        index = bisect_right(self._hashes, self.key_hash(consumer_id))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._points[index][1]

    def assignments(
        self, roster: Sequence[str]
    ) -> dict[str, tuple[str, ...]]:
        """Raw ring placement of a roster: shard name -> sorted consumers.

        Every shard appears as a key (possibly with an empty tuple); use
        :func:`balanced_assignments` when empty shards must be corrected.
        """
        out: dict[str, list[str]] = {name: [] for name in self._shards}
        for cid in roster:
            out[self.owner(cid)].append(cid)
        return {
            name: tuple(sorted(members)) for name, members in out.items()
        }


def balanced_assignments(
    ring: HashRing, roster: Sequence[str]
) -> dict[str, tuple[str, ...]]:
    """Ring placement with empty shards deterministically corrected.

    A shard worker with zero consumers would never ingest, never
    checkpoint, and never heartbeat meaningfully — so every shard must
    own at least one consumer.  With small rosters the raw ring can
    leave a shard empty; the correction repeatedly moves one consumer
    from the most-loaded shard (ties broken by shard name) to the
    emptiest (same tie-break), choosing the donated consumer by highest
    key hash (ties by id) so the fix is a pure function of the ring.
    """
    ids = sorted(set(roster))
    if len(ids) != len(list(roster)):
        raise ConfigurationError("roster contains duplicate consumer ids")
    if not ring.shards:
        raise ConfigurationError("the ring has no shards")
    if len(ids) < len(ring.shards):
        raise ConfigurationError(
            f"cannot place {len(ids)} consumers on {len(ring.shards)} "
            "shards: every shard must own at least one consumer"
        )
    assign = {
        name: list(members)
        for name, members in ring.assignments(ids).items()
    }
    while True:
        empties = sorted(name for name, members in assign.items() if not members)
        if not empties:
            break
        target = empties[0]
        donor = max(
            assign,
            key=lambda name: (len(assign[name]), name),
        )
        moved = max(assign[donor], key=lambda cid: (ring.key_hash(cid), cid))
        assign[donor].remove(moved)
        assign[target].append(moved)
    return {name: tuple(sorted(members)) for name, members in assign.items()}
