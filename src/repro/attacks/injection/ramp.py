"""Boiling-frog ramp attack: poison the baseline, then steal at will.

The naive injectors in this package jump straight to their target theft
level and are caught the first week they run.  A patient attacker does
the opposite: shave consumption by a sliver each week, *slower than the
detector retrains*.  Every retraining round then absorbs last month's
slightly-shaved weeks into the "honest" baseline, the KLD threshold
tracks the drift downward, and by the time the ramp reaches a theft
level the naive attacks would be convicted for, the detector has been
trained to call it normal.  This is the classic data-poisoning /
concept-drift evasion named in ROADMAP item 4 (cf. arXiv 2010.09212):
the model converges on the attack.

Two APIs are exposed:

* the single-week :class:`AttackInjector` contract (``inject`` reports
  the ramp's *terminal* week, for taxonomy sweeps that compare attack
  end-states), and
* the campaign API (:meth:`BoilingFrogRampAttack.factors` /
  :meth:`poison_series`) that applies the full multi-week schedule to a
  slot-aligned series — the form the online-monitoring proofs and the
  ``repro-monitor monitor --ramp-attack`` CLI use.

``repro.integrity`` is the counter-measure: drift sentinels exclude the
ramp weeks from training and the canary gate refuses to promote any
model that has nevertheless converged on the attack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.classes import AttackClass
from repro.attacks.injection.base import (
    AttackInjector,
    AttackVector,
    InjectionContext,
)
from repro.errors import InjectionError

__all__ = ["BoilingFrogRampAttack"]


class BoilingFrogRampAttack(AttackInjector):
    """Multiplicative weekly theft ramp (2A, stealth-optimised).

    Parameters
    ----------
    weekly_decay:
        Factor applied per elapsed week: after ``k`` weeks the attacker
        reports ``max(floor, weekly_decay ** k)`` of actual consumption.
        Must lie in ``(0, 1)``; values near 1 ramp slower and evade
        longer.
    floor:
        Terminal fraction of actual consumption reported — the
        attacker's target theft level, held once reached.
    """

    attack_class = AttackClass.CLASS_2A

    def __init__(self, weekly_decay: float = 0.97, floor: float = 0.45) -> None:
        if not 0.0 < weekly_decay < 1.0:
            raise InjectionError(
                f"weekly_decay must be in (0, 1), got {weekly_decay}"
            )
        if not 0.0 < floor < 1.0:
            raise InjectionError(f"floor must be in (0, 1), got {floor}")
        self.weekly_decay = float(weekly_decay)
        self.floor = float(floor)
        self.name = (
            f"Boiling-frog ramp (x{weekly_decay:g}/week, "
            f"floor {floor:g})"
        )

    # ------------------------------------------------------------------
    # Campaign API (multi-week)
    # ------------------------------------------------------------------

    def factor_for_week(self, weeks_since_start: int) -> float:
        """Reported fraction of actual consumption ``k`` weeks in."""
        if weeks_since_start < 0:
            return 1.0
        return max(self.floor, self.weekly_decay**weeks_since_start)

    def poison_series(
        self,
        series: np.ndarray,
        start_slot: int,
        slots_per_week: int = 336,
    ) -> np.ndarray:
        """Apply the campaign to a slot-aligned series from ``start_slot``.

        Slots before ``start_slot`` are untouched (the attacker's honest
        history — the material the baseline was trained on).  The ramp
        week counter starts at the *week containing* ``start_slot`` and
        advances on week boundaries, so the reported series an online
        monitor ingests is exactly what a metered campaign would send.
        """
        if start_slot < 0:
            raise InjectionError(f"start_slot must be >= 0, got {start_slot}")
        if slots_per_week < 1:
            raise InjectionError(
                f"slots_per_week must be >= 1, got {slots_per_week}"
            )
        values = np.asarray(series, dtype=float).copy()
        start_week = start_slot // slots_per_week
        for slot in range(start_slot, values.shape[0]):
            k = slot // slots_per_week - start_week
            values[slot] *= self.factor_for_week(k)
        return values

    # ------------------------------------------------------------------
    # Single-week taxonomy contract
    # ------------------------------------------------------------------

    def inject(
        self, context: InjectionContext, rng: np.random.Generator
    ) -> AttackVector:
        """The campaign's terminal week: actual scaled to the floor.

        The single-week contract cannot express the ramp itself; what
        it can express is the end-state the ramp is working toward,
        which is what taxonomy-wide billing/detection comparisons need.
        """
        return AttackVector(
            attack_class=self.attack_class,
            reported=context.actual_week * self.floor,
            actual=context.actual_week.copy(),
            description=(
                f"terminal ramp week: readings scaled to floor "
                f"{self.floor:g} after a x{self.weekly_decay:g}/week ramp"
            ),
        )
