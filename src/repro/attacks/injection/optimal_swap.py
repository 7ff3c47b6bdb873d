"""The Optimal Swap attack (Section VIII-B3): Attack Classes 3A/3B.

Within each day, Mallory swaps her highest peak-period readings with her
lowest off-peak readings.  Weekly totals, means, variances — even the full
reading distribution — are untouched; only the temporal ordering changes,
so her largest consumptions are billed at the off-peak price.  The paper
grants her perfect foresight of the week (worst case).
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
from repro.pricing.schemes import TimeOfUsePricing
from repro.timeseries.seasonal import SLOTS_PER_DAY


class OptimalSwapAttack(AttackInjector):
    """Per-day optimal pairing of peak maxima with off-peak minima.

    Parameters
    ----------
    pricing:
        The TOU tariff defining the daily peak window.
    respect_band:
        When True, a swap is only executed if both relocated readings
        stay within the replicated ARIMA band at their new slots,
        "minimizing errors due to exceeding the confidence intervals".
    """

    name = "Optimal Swap attack (3A/3B)"
    attack_class = AttackClass.CLASS_3A

    def __init__(
        self,
        pricing: TimeOfUsePricing | None = None,
        respect_band: bool = True,
    ) -> None:
        self.pricing = pricing if pricing is not None else TimeOfUsePricing()
        if not isinstance(self.pricing, TimeOfUsePricing):
            raise InjectionError("Optimal Swap needs a TOU tariff")
        self.respect_band = bool(respect_band)

    def inject(
        self, context: InjectionContext, rng: np.random.Generator
    ) -> AttackVector:
        reported = context.actual_week.copy()
        week_peak = self.pricing.peak_mask(reported.size, start=context.start_slot)
        slot_of_day = np.arange(SLOTS_PER_DAY)
        swaps = 0
        for day_start in range(0, reported.size, SLOTS_PER_DAY):
            day = slice(day_start, day_start + SLOTS_PER_DAY)
            day_values = reported[day]
            peak_mask = week_peak[day]
            peak_idx = slot_of_day[peak_mask]
            off_idx = slot_of_day[~peak_mask]
            if peak_idx.size == 0 or off_idx.size == 0:
                continue
            # Highest peak readings first, lowest off-peak readings first.
            peak_sorted = peak_idx[np.argsort(-day_values[peak_idx])]
            off_sorted = off_idx[np.argsort(day_values[off_idx])]
            for p, o in zip(peak_sorted, off_sorted):
                high, low = day_values[p], day_values[o]
                if high <= low:
                    break  # remaining pairs can only lose money
                if self.respect_band:
                    lo_p = context.band_lower[day_start + p]
                    hi_p = context.band_upper[day_start + p]
                    lo_o = context.band_lower[day_start + o]
                    hi_o = context.band_upper[day_start + o]
                    if not (lo_p <= low <= hi_p and lo_o <= high <= hi_o):
                        continue
                day_values[p], day_values[o] = low, high
                swaps += 1
            reported[day] = day_values
        return AttackVector(
            attack_class=self.attack_class,
            reported=reported,
            actual=context.actual_week.copy(),
            description=f"{swaps} peak/off-peak reading swaps across the week",
        )
