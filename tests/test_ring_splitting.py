"""Tests for the Algorithm 1/2 polynomial splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import OpCounter
from repro.ring.poly import PolyRing
from repro.ring.splitting import (
    UNIT_LEN,
    software_mul512,
    split_mul_high,
    split_mul_low,
)
from repro.ring.ternary import TernaryPoly


def _random_operands(n, seed):
    rng = np.random.default_rng(seed)
    ternary = rng.integers(-1, 2, n).astype(np.int8)
    general = rng.integers(0, 251, n).astype(np.int64)
    return ternary, general


class TestSplitMulLow:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_unreduced_product(self, seed):
        # Algorithm 2 returns the plain (wrap-free) product of two
        # length-512 polynomials, laid out over 1024 coefficients
        ternary, general = _random_operands(UNIT_LEN, seed)
        got = split_mul_low(ternary, general)
        full = np.mod(np.convolve(ternary.astype(np.int64), general), 251)
        expected = np.zeros(2 * UNIT_LEN, dtype=np.int64)
        expected[: full.size] = full
        assert np.array_equal(got, expected)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            split_mul_low(np.zeros(100, dtype=np.int8), np.zeros(100, dtype=np.int64))

    def test_positive_convolution_padding_is_wrap_free(self):
        # the foundation of Algorithm 2: padded halves never wrap
        rng = np.random.default_rng(9)
        t = np.zeros(UNIT_LEN, dtype=np.int8)
        g = np.zeros(UNIT_LEN, dtype=np.int64)
        t[: UNIT_LEN // 2] = rng.integers(-1, 2, UNIT_LEN // 2)
        g[: UNIT_LEN // 2] = rng.integers(0, 251, UNIT_LEN // 2)
        wrapped = software_mul512(t, g, False)
        plain = np.mod(np.convolve(t.astype(np.int64), g), 251)[:UNIT_LEN]
        padded = np.zeros(UNIT_LEN, dtype=np.int64)
        padded[: plain.size] = plain
        assert np.array_equal(wrapped, padded)


class TestSplitMulHigh:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_matches_negacyclic_golden(self, seed):
        ternary, general = _random_operands(2 * UNIT_LEN, seed)
        ring = PolyRing(2 * UNIT_LEN)
        got = split_mul_high(TernaryPoly(ternary), general)
        expected = ring.mul(np.mod(ternary.astype(np.int64), 251), general)
        assert np.array_equal(got, expected)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            split_mul_high(
                TernaryPoly(np.zeros(512, dtype=np.int8)),
                np.zeros(512, dtype=np.int64),
            )

    def test_counts_recombination_phases(self):
        ternary, general = _random_operands(2 * UNIT_LEN, 3)
        counter = OpCounter()
        split_mul_high(TernaryPoly(ternary), general, counter=counter)
        assert counter.phase_counts("split_recombine_low")["loop"] == 4 * UNIT_LEN
        assert counter.phase_counts("split_recombine_high")["loop"] == 4 * UNIT_LEN


class TestSplitMulGeneral:
    """The generalized splitting behind the MUL TER length ablation."""

    @given(seed=st.integers(0, 200),
           shape=st.sampled_from([(512, 512), (1024, 512), (512, 256),
                                  (1024, 256), (2048, 512)]))
    @settings(max_examples=8, deadline=None)
    def test_matches_golden_all_ratios(self, seed, shape):
        from repro.ring.splitting import split_mul_general

        m, unit_len = shape
        rng = np.random.default_rng(seed)
        t = rng.integers(-1, 2, m).astype(np.int8)
        g = rng.integers(0, 251, m).astype(np.int64)

        def unit(tp, gp, negacyclic):
            return software_mul512_sized(tp, gp, negacyclic, unit_len)

        got = split_mul_general(t, g, unit_len, unit)
        want = PolyRing(m).mul(np.mod(t.astype(np.int64), 251), g)
        assert np.array_equal(got, want)

    def test_transaction_count_quadratic_in_ratio(self):
        from repro.hw.mul_ter import MulTerUnit
        from repro.ring.splitting import split_mul_general

        rng = np.random.default_rng(1)
        t = rng.integers(-1, 2, 1024).astype(np.int8)
        g = rng.integers(0, 251, 1024).astype(np.int64)
        unit = MulTerUnit(256)
        split_mul_general(t, g, 256, unit.as_mul512())
        per_transaction = 256 + -(-256 // 5) + -(-256 // 4)
        assert unit.cycle_count == 64 * per_transaction  # (2m/L)^2 = 64

    def test_rejects_bad_shapes(self):
        from repro.ring.splitting import split_mul_general

        with pytest.raises(ValueError):
            split_mul_general(
                np.zeros(100, dtype=np.int8), np.zeros(100, dtype=np.int64),
                512, software_mul512,
            )
        with pytest.raises(ValueError):
            split_mul_general(
                np.zeros(512, dtype=np.int8), np.zeros(256, dtype=np.int64),
                256, software_mul512,
            )


def software_mul512_sized(ternary, general, negacyclic, unit_len):
    """Golden unit primitive at an arbitrary length."""
    ring = PolyRing(unit_len, negacyclic=negacyclic)
    return ring.reduce_full(np.convolve(ternary.astype(np.int64), general))
