"""The seven attack classes and their Table I properties."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AttackClass(Enum):
    """The paper's attack taxonomy (Section VI).

    The 'A' classes fail the balance check; the 'B' classes circumvent it
    by also over-reporting at least one neighbour (Proposition 2).
    """

    #: Consume more than typical while reporting typical readings.
    CLASS_1A = "1A"
    #: Keep behaviour, under-report own readings.
    CLASS_2A = "2A"
    #: Report load as shifted from high-price to low-price periods.
    CLASS_3A = "3A"
    #: 1A plus over-reporting neighbours to satisfy the balance check.
    CLASS_1B = "1B"
    #: 2A plus over-reporting neighbours.
    CLASS_2B = "2B"
    #: 3A plus over-reporting neighbours.
    CLASS_3B = "3B"
    #: Compromise neighbours' ADR price signals to free up consumption.
    CLASS_4B = "4B"

    @property
    def circumvents_balance_check(self) -> bool:
        """Row 1 of Table I (inverted: 'possible despite balance check')."""
        return self.value.endswith("B")

    @property
    def possible_flat_rate(self) -> bool:
        """Row 2 of Table I."""
        return self.value[0] in {"1", "2"}

    @property
    def possible_tou(self) -> bool:
        """Row 3 of Table I."""
        return self is not AttackClass.CLASS_4B

    @property
    def possible_rtp(self) -> bool:
        """Row 4 of Table I: every class works under real-time pricing."""
        return True

    @property
    def requires_adr(self) -> bool:
        """Row 5 of Table I."""
        return self is AttackClass.CLASS_4B

    @property
    def over_reports_neighbour(self) -> bool:
        """Whether the class requires a neighbour's readings to rise."""
        return self.circumvents_balance_check


@dataclass(frozen=True)
class TableIRow:
    """One column of Table I, as printed in the paper."""

    attack_class: AttackClass
    despite_balance_check: bool
    flat_rate: bool
    tou: bool
    rtp: bool
    requires_adr: bool


def _row(cls: AttackClass) -> TableIRow:
    return TableIRow(
        attack_class=cls,
        despite_balance_check=cls.circumvents_balance_check,
        flat_rate=cls.possible_flat_rate,
        tou=cls.possible_tou,
        rtp=cls.possible_rtp,
        requires_adr=cls.requires_adr,
    )


#: Table I of the paper, derived from the class properties.
TABLE_I: tuple[TableIRow, ...] = tuple(
    _row(cls)
    for cls in (
        AttackClass.CLASS_1A,
        AttackClass.CLASS_2A,
        AttackClass.CLASS_3A,
        AttackClass.CLASS_1B,
        AttackClass.CLASS_2B,
        AttackClass.CLASS_3B,
        AttackClass.CLASS_4B,
    )
)
