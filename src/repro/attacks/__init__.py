"""Attack model, taxonomy, and false-data injections.

Implements the paper's Sections IV (attack model and Proposition 1),
VI (the seven attack classes and Table I), and VIII-B (the concrete
false-data injections used in the evaluation: the ARIMA attack, the
Integrated ARIMA attack, and the Optimal Swap attack).
"""

from repro.attacks.classes import AttackClass, TABLE_I
from repro.attacks.model import (
    proposition1_witnesses,
    proposition2_witnesses,
    verify_proposition1,
    verify_proposition2,
)
from repro.attacks.taxonomy import AttackDescriptor, classify_attack, render_table_i
from repro.attacks.planner import AttackPlan, DefensePosture, plan_attack
from repro.attacks.bounds import (
    max_over_report_under_band,
    max_over_report_under_moment_checks,
    max_swap_profit,
    max_theft_under_band,
    max_theft_under_min_average,
)
from repro.attacks.injection import (
    AttackInjector,
    AttackVector,
    ARIMAAttack,
    ADRPriceAttack,
    InjectionContext,
    IntegratedARIMAAttack,
    OptimalSwapAttack,
    ScalingAttack,
    ZeroReportAttack,
)

__all__ = [
    "ADRPriceAttack",
    "ARIMAAttack",
    "AttackClass",
    "AttackDescriptor",
    "AttackInjector",
    "AttackPlan",
    "AttackVector",
    "DefensePosture",
    "plan_attack",
    "InjectionContext",
    "IntegratedARIMAAttack",
    "OptimalSwapAttack",
    "ScalingAttack",
    "TABLE_I",
    "ZeroReportAttack",
    "classify_attack",
    "max_over_report_under_band",
    "max_over_report_under_moment_checks",
    "max_swap_profit",
    "max_theft_under_band",
    "max_theft_under_min_average",
    "proposition1_witnesses",
    "proposition2_witnesses",
    "render_table_i",
    "verify_proposition1",
    "verify_proposition2",
]
