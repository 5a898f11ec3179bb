"""Tests for the MUL GF and MUL CHIEN hardware models (Figs. 3-4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf.field import GF512
from repro.hw.chien import ChienUnit, PARALLEL_MULTIPLIERS
from repro.hw.mul_gf import MulGfUnit
from tests.test_gf_field import evaluate

elements = st.integers(min_value=0, max_value=511)


class TestMulGf:
    @given(a=elements, b=elements)
    @settings(max_examples=100)
    def test_matches_field_mul(self, a, b):
        assert MulGfUnit().multiply(a, b) == GF512.mul(a, b)

    def test_takes_exactly_m_cycles(self):
        unit = MulGfUnit()
        unit.load(3, 5)
        assert unit.run_to_completion() == 9

    def test_cycle_counter_accumulates(self):
        unit = MulGfUnit()
        unit.multiply(2, 3)
        unit.multiply(4, 5)
        assert unit.cycle_count == 18

    def test_zero_operands_still_take_m_cycles(self):
        """Constant time by construction: zeros cost the same."""
        unit = MulGfUnit()
        unit.multiply(0, 0)
        assert unit.cycle_count == 9

    def test_load_validates(self):
        with pytest.raises(ValueError):
            MulGfUnit().load(512, 0)

    def test_paper_example(self):
        # alpha^9 * alpha = alpha^10 in vector representation
        a9 = GF512.alpha_pow(9)
        assert MulGfUnit().multiply(a9, GF512.alpha) == GF512.alpha_pow(10)

    def test_inventory_small(self):
        inv = MulGfUnit().inventory()
        assert inv.dsp == 0
        assert inv.flipflops < 50


def _locator_with_roots(powers, size=17):
    """Lambda(x) = prod (1 + alpha^{-l} x), as ``size`` coefficients."""
    lams = [1] + [0] * (size - 1)
    for l in powers:
        # root at alpha^l: factor (x - alpha^l) scaled to keep lambda_0 = 1
        inverse = GF512.inv(GF512.alpha_pow(l))
        lams = lams[:1] + [lams[i] ^ GF512.mul(inverse, lams[i - 1]) for i in range(1, size)]
    return lams


class TestChienUnit:
    def test_search_finds_planted_roots(self):
        lams = _locator_with_roots([130, 200, 300])
        found = ChienUnit().search(lams, 16, 112, 367)
        naive = [
            l for l in range(112, 368) if evaluate(GF512, lams, GF512.alpha_pow(l)) == 0
        ]
        assert found == naive == [130, 200, 300]

    def test_search_t8(self):
        lams = _locator_with_roots([190, 250], size=9)
        found = ChienUnit().search(lams, 8, 184, 439)
        assert found == [190, 250]

    def test_search_no_roots(self):
        assert ChienUnit().search([1] + [0] * 16, 16, 112, 367) == []

    @given(powers=st.lists(st.integers(120, 360), min_size=1, max_size=5,
                           unique=True))
    @settings(max_examples=15, deadline=None)
    def test_search_matches_naive(self, powers):
        lams = _locator_with_roots(powers)
        found = ChienUnit().search(lams, 16, 112, 367)
        assert found == sorted(powers)

    def test_step_cycles(self):
        unit = ChienUnit()
        assert unit.cycles_per_step == 10  # 9 multiplier clocks + latch

    def test_feedback_avoids_reloads(self):
        """After one load, successive steps walk consecutive powers."""
        unit = ChienUnit()
        lams = _locator_with_roots([150])
        total = 0
        for group in range(4):
            left, right, _ = unit.group_elements(lams, group, 112)
            unit.load_left(left)
            unit.load_right(right)
            for i in range(60):
                total ^= unit.step()
        # 4 groups x (2 loads + 60 steps); only 8 load transfers happened
        assert unit.cycle_count == 4 * (2 + 60 * unit.cycles_per_step)

    def test_group_elements_prescaling(self):
        unit = ChienUnit()
        lams = [1, 5, 7, 9, 11] + [0] * 12
        left, right, muls = unit.group_elements(lams, 0, start_exponent=112)
        assert muls == 4
        # constants are alpha^1..alpha^4
        assert left[0] == GF512.alpha_pow(1)
        assert right[2] == GF512.alpha_pow(4)
        # lambdas are prescaled by alpha^{111*k}
        assert left[1] == GF512.mul(5, GF512.alpha_pow(111))

    def test_step_without_load_fails(self):
        with pytest.raises(RuntimeError):
            ChienUnit().step()

    def test_load_validates(self):
        with pytest.raises(ValueError):
            ChienUnit().load_left([1, 2, 3])  # wrong count
        with pytest.raises(ValueError):
            ChienUnit().load_right([1, 2, 3, 512])  # out of field

    def test_search_rejects_bad_t(self):
        with pytest.raises(ValueError):
            ChienUnit().search([1, 0, 0], 3, 1, 10)

    def test_four_parallel_multipliers(self):
        assert PARALLEL_MULTIPLIERS == 4
        assert len(ChienUnit().multipliers) == 4

    def test_inventory_matches_table3_scale(self):
        """Table III: the GF block is tiny (86 LUTs / 158 FFs)."""
        inv = ChienUnit().inventory()
        assert inv.flipflops < 250
        assert inv.dsp == 0
        assert inv.bram == 0
