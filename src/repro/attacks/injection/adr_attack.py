"""Attack Class 4B: compromising a neighbour's ADR price signal.

The paper defers 4B's evaluation to future work; this injector implements
it as our extension experiment (DESIGN.md, X3).  Mallory inflates the
price the victim's ADR interface sees, the victim's elastic load sheds in
response, and the victim's readings are reported at the level he *would*
have consumed at the true price — so the balance check passes while
Mallory consumes the freed headroom.
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
from repro.pricing.adr import ADRInterface, ElasticConsumer
from repro.pricing.schemes import PricingScheme
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class ADRPriceAttack(AttackInjector):
    """Forge an inflated price to a victim's ADR interface.

    The subject of the returned vector is the *victim*: ``actual`` is his
    suppressed consumption under the forged price; ``reported`` is his
    baseline response at the true price.  Mallory's consumption rises by
    exactly the suppressed amount, keeping the parent-node balance intact.

    Parameters
    ----------
    pricing:
        The true real-time (or TOU) price signal.
    consumer:
        The victim's elasticity model.
    price_multiplier:
        Factor by which the forged price exceeds the true price.
    """

    name = "ADR price attack (4B)"
    attack_class = AttackClass.CLASS_4B

    def __init__(
        self,
        pricing: PricingScheme,
        consumer: ElasticConsumer | None = None,
        price_multiplier: float = 1.5,
    ) -> None:
        if price_multiplier <= 1.0:
            raise InjectionError(
                f"price_multiplier must exceed 1, got {price_multiplier}"
            )
        if not pricing.is_variable:
            raise InjectionError("Attack Class 4B requires variable pricing")
        self.pricing = pricing
        self.consumer = consumer if consumer is not None else ElasticConsumer()
        self.price_multiplier = float(price_multiplier)

    def compromised_prices(self, start_slot: int = 0) -> np.ndarray:
        """lambda'_n(t): the forged week of prices the victim sees."""
        true_prices = self.pricing.price_vector(SLOTS_PER_WEEK, start=start_slot)
        return true_prices * self.price_multiplier

    def inject(
        self, context: InjectionContext, rng: np.random.Generator
    ) -> AttackVector:
        # The victim's baseline is his planned (pre-response) load; his
        # ADR system would have consumed `reported` at the true price.
        baseline = context.actual_week
        true_prices = self.pricing.price_vector(
            SLOTS_PER_WEEK, start=context.start_slot
        )
        interface = ADRInterface(consumer=self.consumer)
        reported = interface.respond_vector(baseline, true_prices)
        interface.compromise(self.price_multiplier)
        actual = interface.respond_vector(baseline, true_prices)
        return AttackVector(
            attack_class=self.attack_class,
            reported=reported,
            actual=actual,
            description=(
                f"victim's ADR price inflated x{self.price_multiplier:g}; "
                "suppressed load consumed by Mallory"
            ),
        )
