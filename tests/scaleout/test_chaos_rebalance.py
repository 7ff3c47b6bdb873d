"""Kill–rebalance–heal chaos proofs.

The load-bearing claims of the elastic fleet:

* **placement neutrality** — an elastic fleet that grows mid-run
  produces merged weekly verdicts bit-identical to one unsharded
  service over the same roster;
* **crash neutrality** — a coordinator crash at *any* handoff phase,
  plus worker kills and hangs around it, recovers (roll-back before the
  manifest commit, roll-forward after) to verdicts and reading stores
  bit-identical to an undisturbed fleet running the same topology
  schedule;
* **minimal movement** — a live shard add migrates at most
  ~``n/shards`` consumers.
"""

import math

import numpy as np
import pytest
from _fixtures import (
    CONSUMERS,
    WEEKS,
    detector_factory,
    readings,
    service_factory,
)

from repro.scaleout import HANDOFF_PHASES, ElasticFleet, merged_signature
from repro.timeseries.seasonal import SLOTS_PER_WEEK

T = WEEKS * SLOTS_PER_WEEK
GROW_AT = SLOTS_PER_WEEK + 30


class SimulatedCrash(Exception):
    """Raised from a phase hook to model the coordinator dying."""


def _fleet(base_dir, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return ElasticFleet(
        CONSUMERS, base_dir, service_factory, detector_factory, **kwargs
    )


def _reopen(base_dir):
    return ElasticFleet((), base_dir, service_factory, detector_factory)


def _series_equal(a, b):
    """Bit-equal reading stores, treating NaN gaps as equal."""
    if set(a) != set(b):
        return False
    return all(
        np.array_equal(
            np.asarray(a[cid], dtype=float),
            np.asarray(b[cid], dtype=float),
            equal_nan=True,
        )
        for cid in a
    )


def _run_baseline(base_dir):
    """An undisturbed fleet following the canonical topology schedule."""
    fleet = _fleet(base_dir)
    try:
        for t in range(T):
            if t == GROW_AT:
                fleet.add_shard()
            fleet.ingest_cycle(readings(t))
        return fleet.merged_signature(), fleet.reading_series()
    finally:
        fleet.close()


class TestPlacementNeutrality:
    def test_elastic_fleet_matches_unsharded_service(self, tmp_path):
        """Grow mid-run; merged verdicts == one big service."""
        sig, series = _run_baseline(tmp_path / "fleet")

        solo = service_factory(CONSUMERS)
        for t in range(T):
            solo.ingest_cycle(readings(t))
        assert sig == merged_signature({"solo": solo.reports})
        assert _series_equal(series, dict(solo.store._series))

    def test_handoff_moves_at_most_fair_share(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(GROW_AT):
                fleet.ingest_cycle(readings(t))
            before = {w.name: w.consumers for w in fleet.workers()}
            new_shard = fleet.add_shard()
            after = {w.name: w.consumers for w in fleet.workers()}
            # Everyone previously placed either stayed home or moved to
            # the new shard; movement is bounded by the fair share.
            movers = [
                cid
                for name, members in before.items()
                for cid in members
                if cid not in after.get(name, ())
            ]
            bound = math.ceil(len(CONSUMERS) / len(after)) * 1.5
            assert 0 < len(movers) <= bound
            assert set(movers) == set(after[new_shard])


class TestKillRebalanceHeal:
    def test_kill_hang_and_rebalance_bit_identical(self, tmp_path):
        baseline = _run_baseline(tmp_path / "baseline")

        fleet = _fleet(tmp_path / "chaos")
        try:
            for t in range(T):
                if t == 40:
                    fleet.kill(fleet.shards[0])
                if t == SLOTS_PER_WEEK - 20:
                    fleet.hang(fleet.shards[1])
                if t == GROW_AT:
                    fleet.add_shard()
                if t == GROW_AT + 25:
                    fleet.kill(fleet.shards[-1])  # kill a handoff dest
                fleet.ingest_cycle(readings(t))
            assert fleet.restarts_total >= 3
            assert fleet.merged_signature() == baseline[0]
            assert _series_equal(fleet.reading_series(), baseline[1])
        finally:
            fleet.close()


class TestCrashMidHandoff:
    @pytest.mark.parametrize("crash_phase", HANDOFF_PHASES)
    def test_crash_at_each_phase_recovers_bit_identical(
        self, tmp_path, crash_phase
    ):
        """Kill the coordinator at every handoff phase in turn.

        A crash before the manifest commit rolls the handoff back (the
        reopened fleet still has 2 shards and the add is redone); a
        crash at or after install rolls it forward (the reopened fleet
        already has 3).  Either way the final merged verdicts and
        reading stores are bit-identical to an undisturbed
        fleet that performed the same grow — with a worker kill and a
        hang thrown in before the handoff for good measure.
        """
        baseline = _run_baseline(tmp_path / "baseline")

        def crash(phase):
            if phase == crash_phase:
                raise SimulatedCrash(phase)

        fleet = _fleet(tmp_path / "chaos")
        try:
            t = 0
            while t < T:
                if t == 40:
                    fleet.kill(fleet.shards[0])
                if t == 80:
                    fleet.hang(fleet.shards[1])
                if t == GROW_AT:
                    try:
                        fleet.add_shard(on_phase=crash)
                    except SimulatedCrash:
                        # The in-memory fleet is dead.  Reopen the same
                        # base_dir: recovery rolls the half-finished
                        # handoff back or forward off the manifest.
                        fleet.close()
                        fleet = _reopen(tmp_path / "chaos")
                        if len(fleet.shards) == 2:
                            fleet.add_shard()  # rolled back: redo it
                        assert len(fleet.shards) == 3
                        # Head-end re-feeds from the recovery cycle.
                        for tt in range(fleet.cycle, t):
                            fleet.ingest_cycle(readings(tt))
                fleet.ingest_cycle(readings(t))
                t += 1
            assert fleet.merged_signature() == baseline[0]
            assert _series_equal(fleet.reading_series(), baseline[1])
        finally:
            fleet.close()

    def test_crash_then_cold_restart_still_bit_identical(self, tmp_path):
        """Crash mid-install, recover, then cold-restart at the end."""
        baseline = _run_baseline(tmp_path / "baseline")

        def crash(phase):
            if phase == "install":
                raise SimulatedCrash(phase)

        fleet = _fleet(tmp_path / "chaos")
        t = 0
        while t < T - 50:
            if t == GROW_AT:
                try:
                    fleet.add_shard(on_phase=crash)
                except SimulatedCrash:
                    fleet.close()
                    fleet = _reopen(tmp_path / "chaos")
                    for tt in range(fleet.cycle, t):
                        fleet.ingest_cycle(readings(tt))
            fleet.ingest_cycle(readings(t))
            t += 1
        fleet.close()  # clean shutdown ... then a fresh incarnation
        fleet = _reopen(tmp_path / "chaos")
        try:
            for t in range(fleet.cycle, T):
                fleet.ingest_cycle(readings(t))
            assert fleet.merged_signature() == baseline[0]
            assert _series_equal(fleet.reading_series(), baseline[1])
        finally:
            fleet.close()
