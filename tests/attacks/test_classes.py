"""Unit tests for attack classes and Table I properties."""

import pytest

from repro.attacks.classes import TABLE_I, AttackClass


class TestTableIExactMatch:
    """Assert every cell of the paper's Table I."""

    EXPECTED = {
        # class: (despite_balance, flat, tou, rtp, adr)
        "1A": (False, True, True, True, False),
        "2A": (False, True, True, True, False),
        "3A": (False, False, True, True, False),
        "1B": (True, True, True, True, False),
        "2B": (True, True, True, True, False),
        "3B": (True, False, True, True, False),
        "4B": (True, False, False, True, True),
    }

    @pytest.mark.parametrize("row", TABLE_I, ids=lambda r: r.attack_class.value)
    def test_row(self, row):
        expected = self.EXPECTED[row.attack_class.value]
        assert row.despite_balance_check == expected[0]
        assert row.flat_rate == expected[1]
        assert row.tou == expected[2]
        assert row.rtp == expected[3]
        assert row.requires_adr == expected[4]

    def test_seven_classes(self):
        assert len(TABLE_I) == 7
        assert len({row.attack_class for row in TABLE_I}) == 7


class TestClassProperties:
    def test_b_classes_circumvent_balance_check(self):
        for cls in AttackClass:
            assert cls.circumvents_balance_check == cls.value.endswith("B")

    def test_every_class_possible_under_rtp(self):
        """Table I row 4: RTP admits every attack class."""
        assert all(cls.possible_rtp for cls in AttackClass)

    def test_only_4b_requires_adr(self):
        adr_classes = [cls for cls in AttackClass if cls.requires_adr]
        assert adr_classes == [AttackClass.CLASS_4B]

    def test_load_shift_needs_variable_pricing(self):
        assert not AttackClass.CLASS_3A.possible_flat_rate
        assert not AttackClass.CLASS_3B.possible_flat_rate

    def test_over_report_matches_b_classes(self):
        for cls in AttackClass:
            assert cls.over_reports_neighbour == cls.circumvents_balance_check
