"""Tests for GF(2^m) field arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf.field import GF2m, GF512, LAC_PRIMITIVE_POLY

elements = st.integers(min_value=0, max_value=511)
nonzero = st.integers(min_value=1, max_value=511)


def evaluate(field, coeffs, point):
    """A polynomial over ``field`` (coefficients low to high) at ``point``, by Horner."""
    value = 0
    for coefficient in reversed(coeffs):
        value = field.mul(value, point) ^ coefficient
    return value


class TestConstruction:
    def test_lac_field_parameters(self):
        assert GF512.m == 9
        assert GF512.order == 512
        assert GF512.group_order == 511
        assert GF512.primitive_poly == 0x211

    def test_primitive_poly_matches_paper(self):
        # p(x) = 1 + x^4 + x^9
        assert LAC_PRIMITIVE_POLY == (1 << 9) | (1 << 4) | 1

    def test_alpha_9_vector_representation(self):
        # the paper's worked example: alpha^9 = 1 + alpha^4
        assert GF512.alpha_pow(9) == 0b000010001

    def test_alpha_10_vector_representation(self):
        # alpha^10 = alpha + alpha^5
        assert GF512.alpha_pow(10) == 0b000100010

    def test_alpha_11_vector_representation(self):
        # alpha^11 = alpha^2 + alpha^6
        assert GF512.alpha_pow(11) == 0b001000100

    def test_group_closes(self):
        # alpha^(2^m - 1) = 1
        assert GF512.alpha_pow(511) == 1

    def test_small_field_gf16(self):
        field = GF2m(4, 0b10011)  # x^4 + x + 1, primitive
        values = {field.alpha_pow(i) for i in range(15)}
        assert len(values) == 15  # alpha generates the full group

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError, match="degree"):
            GF2m(9, 0b1011)

    def test_rejects_non_primitive(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but NOT primitive
        with pytest.raises(ValueError, match="primitive"):
            GF2m(4, 0b11111)

    def test_rejects_reducible(self):
        # x^4 + 1 = (x+1)^4 over GF(2)
        with pytest.raises(ValueError):
            GF2m(4, 0b10001)

    def test_rejects_tiny_degree(self):
        with pytest.raises(ValueError):
            GF2m(1, 0b11)

    def test_equality_and_hash(self):
        other = GF2m(9, LAC_PRIMITIVE_POLY)
        assert other == GF512
        assert hash(other) == hash(GF512)
        assert GF2m(4, 0b10011) != GF512


class TestArithmetic:
    def test_add_is_xor(self):
        assert GF512.add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self):
        assert GF512.sub(37, 19) == GF512.add(37, 19)

    def test_mul_by_zero(self):
        assert GF512.mul(0, 123) == 0
        assert GF512.mul(123, 0) == 0

    def test_mul_by_one(self):
        for a in (1, 2, 100, 511):
            assert GF512.mul(a, 1) == a

    def test_mul_alpha_shifts(self):
        # multiplying by alpha = x is a shift (with reduction)
        assert GF512.mul(1, 2) == 2
        assert GF512.mul(2, 2) == 4
        assert GF512.mul(0b100000000, 2) == GF512.alpha_pow(9)

    @given(a=elements, b=elements)
    def test_mul_matches_shift_add(self, a, b):
        assert GF512.mul(a, b) == GF512.mul_shift_add(a, b)

    @given(a=elements, b=elements)
    def test_mul_commutative(self, a, b):
        assert GF512.mul(a, b) == GF512.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    def test_mul_associative(self, a, b, c):
        assert GF512.mul(GF512.mul(a, b), c) == GF512.mul(a, GF512.mul(b, c))

    @given(a=elements, b=elements, c=elements)
    def test_distributive(self, a, b, c):
        left = GF512.mul(a, GF512.add(b, c))
        right = GF512.add(GF512.mul(a, b), GF512.mul(a, c))
        assert left == right

    @given(a=nonzero)
    def test_inverse(self, a):
        assert GF512.mul(a, GF512.inv(a)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF512.inv(0)

    @given(a=elements, b=nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert GF512.mul(GF512.div(a, b), b) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF512.div(5, 0)

    def test_div_zero_numerator(self):
        assert GF512.div(0, 7) == 0

    @given(a=nonzero, e=st.integers(min_value=-1000, max_value=1000))
    def test_pow_matches_repeated_mul(self, a, e):
        expected = 1
        base = a if e >= 0 else GF512.inv(a)
        for _ in range(abs(e)):
            expected = GF512.mul(expected, base)
        assert GF512.pow(a, e) == expected

    def test_pow_zero_base(self):
        assert GF512.pow(0, 0) == 1
        assert GF512.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            GF512.pow(0, -1)

    @given(a=nonzero)
    def test_log_exp_roundtrip(self, a):
        assert GF512.alpha_pow(GF512.log(a)) == a

    def test_log_zero_raises(self):
        with pytest.raises(ValueError):
            GF512.log(0)

    def test_shift_add_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GF512.mul_shift_add(512, 1)
        with pytest.raises(ValueError):
            GF512.mul_shift_add(1, -1)


class TestExhaustiveCrossCheck:
    """Exhaustive verification of a small field against polynomial
    arithmetic — GF(2^4) multiplication recomputed independently via
    Poly2 carry-less products reduced by the primitive polynomial."""

    def test_gf16_multiplication_table(self):
        from repro.gf.poly2 import Poly2

        primitive = 0b10011  # x^4 + x + 1
        field = GF2m(4, primitive)
        modulus = Poly2(primitive)
        for a in range(16):
            for b in range(16):
                independent = (Poly2(a) * Poly2(b) % modulus).mask
                assert field.mul(a, b) == independent, (a, b)

    def test_gf512_spot_check_against_poly2(self):
        from repro.gf.poly2 import Poly2

        modulus = Poly2(LAC_PRIMITIVE_POLY)
        import random

        rng = random.Random(7)
        for _ in range(300):
            a, b = rng.randrange(512), rng.randrange(512)
            independent = (Poly2(a) * Poly2(b) % modulus).mask
            assert GF512.mul(a, b) == independent

    def test_gf16_inverses_exhaustive(self):
        field = GF2m(4, 0b10011)
        for a in range(1, 16):
            assert field.mul(a, field.inv(a)) == 1


class TestStructure:
    def test_conjugates_of_alpha(self):
        conj = GF512.conjugates(GF512.alpha)
        # the conjugacy class of alpha in GF(2^9) has 9 elements
        assert len(conj) == 9
        assert GF512.alpha in conj

    def test_minimal_polynomial_of_alpha_is_p(self):
        assert GF512.minimal_polynomial(GF512.alpha) == LAC_PRIMITIVE_POLY

    def test_minimal_polynomial_of_one(self):
        # m(x) = x + 1
        assert GF512.minimal_polynomial(1) == 0b11

    def test_minimal_polynomial_has_element_as_root(self):
        for power in (1, 3, 5, 7, 11):
            element = GF512.alpha_pow(power)
            mask = GF512.minimal_polynomial(element)
            coeffs = [(mask >> i) & 1 for i in range(mask.bit_length())]
            assert evaluate(GF512, coeffs, element) == 0

    @given(power=st.integers(min_value=1, max_value=510))
    @settings(max_examples=30)
    def test_conjugates_share_minimal_polynomial(self, power):
        element = GF512.alpha_pow(power)
        mask = GF512.minimal_polynomial(element)
        for conjugate in GF512.conjugates(element):
            assert GF512.minimal_polynomial(conjugate) == mask
