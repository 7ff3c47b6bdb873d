"""Consistent-hash ring: determinism, balance, minimal movement."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.scaleout import HashRing, balanced_assignments

ROSTER = tuple(f"m{i:04d}" for i in range(200))
SHARDS = tuple(f"shard-{i:04d}" for i in range(4))


def moved_consumers(before, after):
    """Consumers whose owning shard differs between two assignments."""
    owner = {cid: name for name, members in before.items() for cid in members}
    return tuple(
        sorted(
            cid
            for name, members in after.items()
            for cid in members
            if owner[cid] != name
        )
    )


class TestRingMembership:
    def test_shards_sorted_and_order_insensitive(self):
        a = HashRing(("b", "a", "c"))
        b = HashRing(("c", "b", "a"))
        assert a.shards == b.shards == ("a", "b", "c")
        assert len(a) == 3 and "b" in a and "z" not in a

    def test_duplicate_and_empty_names_rejected(self):
        ring = HashRing(("a",))
        with pytest.raises(ConfigurationError):
            ring.add_shard("a")
        with pytest.raises(ConfigurationError):
            ring.add_shard("")
        with pytest.raises(ConfigurationError):
            HashRing((), vnodes=0)

    def test_owner_requires_shards(self):
        with pytest.raises(ConfigurationError):
            HashRing(()).owner("m0001")


class TestPlacementDeterminism:
    def test_pure_function_of_seed_and_membership(self):
        one = HashRing(SHARDS).assignments(ROSTER)
        two = HashRing(tuple(reversed(SHARDS))).assignments(ROSTER)
        assert one == two

    def test_different_seed_different_placement(self):
        base = HashRing(SHARDS).assignments(ROSTER)
        other = HashRing(SHARDS, seed=7).assignments(ROSTER)
        assert base != other

    def test_every_shard_keyed_even_when_empty(self):
        ring = HashRing(SHARDS)
        assignment = ring.assignments(("m0000",))
        assert set(assignment) == set(SHARDS)
        assert sum(len(v) for v in assignment.values()) == 1


class TestBalance:
    def test_roster_partitioned_exactly(self):
        assignment = balanced_assignments(HashRing(SHARDS), ROSTER)
        everyone = sorted(
            cid for members in assignment.values() for cid in members
        )
        assert everyone == sorted(ROSTER)

    def test_vnodes_keep_imbalance_bounded(self):
        assignment = balanced_assignments(HashRing(SHARDS), ROSTER)
        sizes = [len(members) for members in assignment.values()]
        mean = len(ROSTER) / len(SHARDS)
        # 64 vnodes/shard keeps every shard within ~2x of fair share.
        assert min(sizes) >= mean * 0.4
        assert max(sizes) <= mean * 2.0

    def test_no_shard_left_empty(self):
        # Tiny rosters can leave raw ring arcs empty; the correction
        # must fill every shard deterministically.
        roster = ("a", "b", "c", "d", "e")
        ring = HashRing(SHARDS)
        one = balanced_assignments(ring, roster)
        two = balanced_assignments(HashRing(SHARDS), roster)
        assert one == two
        assert all(len(members) >= 1 for members in one.values())

    def test_validation(self):
        ring = HashRing(SHARDS)
        with pytest.raises(ConfigurationError):
            balanced_assignments(ring, ("a", "a", "b", "c", "d"))
        with pytest.raises(ConfigurationError):
            balanced_assignments(HashRing(()), ROSTER)
        with pytest.raises(ConfigurationError):
            balanced_assignments(ring, ("a", "b"))


class TestMinimalMovement:
    def test_single_shard_add_moves_at_most_fair_share(self):
        """The acceptance bound: one shard added moves <= ceil(n/shards)
        * (1 + eps) consumers."""
        ring = HashRing(SHARDS)
        before = balanced_assignments(ring, ROSTER)
        ring.add_shard("shard-0004")
        after = balanced_assignments(ring, ROSTER)
        moved = moved_consumers(before, after)
        bound = math.ceil(len(ROSTER) / 5) * 1.5
        assert 0 < len(moved) <= bound
        # Every mover landed on the new shard; nobody else changed home.
        assert set(moved) == set(after["shard-0004"])

    def test_single_shard_remove_moves_only_its_consumers(self):
        before = balanced_assignments(HashRing(SHARDS), ROSTER)
        survivors = HashRing(tuple(s for s in SHARDS if s != "shard-0002"))
        after = balanced_assignments(survivors, ROSTER)
        moved = moved_consumers(before, after)
        assert set(moved) == set(before["shard-0002"])
        bound = math.ceil(len(ROSTER) / len(SHARDS)) * 1.5
        assert len(moved) <= bound


class TestEdgeCases:
    """Degenerate fleets: an empty ring and a one-shard ring."""

    def test_empty_ring_has_no_shards_and_refuses_placement(self):
        ring = HashRing(())
        assert ring.shards == () and len(ring) == 0
        with pytest.raises(ConfigurationError, match="no shards"):
            ring.owner("m0001")
        with pytest.raises(ConfigurationError, match="no shards"):
            balanced_assignments(ring, ROSTER)
        with pytest.raises(ConfigurationError, match="no shards"):
            ring.assignments(ROSTER)
        # Only the empty roster has a (vacuous) placement on no shards.
        assert ring.assignments(()) == {}

    def test_single_shard_owns_everything(self):
        ring = HashRing(("only",))
        assign = balanced_assignments(ring, ROSTER)
        assert assign == {"only": tuple(sorted(ROSTER))}
        assert all(ring.owner(cid) == "only" for cid in ROSTER[:10])

    def test_single_consumer_single_shard(self):
        ring = HashRing(("only",))
        assert balanced_assignments(ring, ("m0001",)) == {"only": ("m0001",)}

    def test_fewer_consumers_than_shards_refused(self):
        ring = HashRing(SHARDS)
        with pytest.raises(ConfigurationError, match="at least one consumer"):
            balanced_assignments(ring, ("m0001", "m0002"))

    def test_consumers_equal_shards_places_one_each(self):
        ring = HashRing(SHARDS)
        assign = balanced_assignments(ring, ROSTER[: len(SHARDS)])
        assert sorted(len(v) for v in assign.values()) == [1, 1, 1, 1]

    def test_empty_roster_on_empty_ring_still_refused(self):
        with pytest.raises(ConfigurationError, match="no shards"):
            balanced_assignments(HashRing(()), ())


class TestPinnedPlacement:
    """Placement pins for ``shard-NNNN`` state directories.

    A fleet reopened over a directory written by an earlier run must
    route every consumer to the shard whose WAL holds its history, so
    the default-seed placement of these fixtures may never change.
    """

    def test_pinned_30_consumer_fixture_routing(self):
        thirty = tuple(f"m{i:03d}" for i in range(30))
        names = [f"shard-{i:04d}" for i in range(3)]
        assignment = balanced_assignments(HashRing(names), sorted(thirty))
        assert tuple(assignment[name] for name in names) == (
            (
                "m006", "m007", "m009", "m012", "m014", "m015",
                "m017", "m019", "m024", "m027", "m029",
            ),
            (
                "m001", "m002", "m004", "m010", "m011", "m013",
                "m016", "m018", "m020", "m022", "m023", "m026",
            ),
            ("m000", "m003", "m005", "m008", "m021", "m025", "m028"),
        )

    def test_growth_moves_few_consumers(self):
        """The reason for the ring: growth must not reshuffle everyone."""
        roster = tuple(f"m{i:03d}" for i in range(120))
        ring = HashRing([f"shard-{i:04d}" for i in range(3)])
        before = balanced_assignments(ring, roster)
        ring.add_shard("shard-0003")
        after = balanced_assignments(ring, roster)
        moved = moved_consumers(before, after)
        # Minimal-movement bound: about n/shards, never almost all.
        assert 0 < len(moved) <= int(len(roster) / 4 * 1.5)
