"""Tests for BCH code construction."""

import pytest

from repro.bch.code import BCHCode, LAC_BCH_128_256, LAC_BCH_192
from repro.gf.field import GF2m, GF512
from repro.gf.poly2 import Poly2


class TestLacCodes:
    def test_bch_511_367_16(self):
        code = LAC_BCH_128_256
        assert code.n_full == 511
        assert code.k_full == 367
        assert code.t == 16
        assert code.parity_bits == 144

    def test_bch_511_439_8(self):
        code = LAC_BCH_192
        assert code.n_full == 511
        assert code.k_full == 439
        assert code.t == 8
        assert code.parity_bits == 72

    def test_shortened_dimensions(self):
        assert LAC_BCH_128_256.k == 256
        assert LAC_BCH_128_256.n == 400
        assert LAC_BCH_192.k == 256
        assert LAC_BCH_192.n == 328

    def test_shortening(self):
        assert LAC_BCH_128_256.shortening == 367 - 256
        assert LAC_BCH_192.shortening == 439 - 256

    def test_chien_message_window_matches_paper(self):
        # Sec. IV-B: Lambda(alpha^112)..Lambda(alpha^368) for LAC-128/256
        # and Lambda(alpha^184)..Lambda(alpha^440) for LAC-192 (the paper
        # quotes inclusive upper bounds one past the last message root)
        assert LAC_BCH_128_256.chien_message_start == 112
        assert LAC_BCH_128_256.chien_message_stop == 367
        assert LAC_BCH_192.chien_message_start == 184
        assert LAC_BCH_192.chien_message_stop == 439

    def test_describe(self):
        assert LAC_BCH_128_256.describe() == "BCH(511,367,16) shortened to (400,256)"

    def test_full_code_describe(self):
        code = BCHCode(GF512, t=2)
        assert "shortened" not in code.describe()


class TestGenerator:
    def test_generator_divides_x_n_plus_1(self):
        # g(x) | x^511 + 1 for any BCH generator
        for code in (LAC_BCH_128_256, LAC_BCH_192):
            modulus = Poly2((1 << 511) | 1)
            assert (modulus % code.generator).mask == 0

    def test_generator_has_designed_roots(self):
        from tests.test_gf_field import evaluate

        code = LAC_BCH_192
        mask = code.generator.mask
        coeffs = [(mask >> i) & 1 for i in range(mask.bit_length())]
        for j in range(1, 2 * code.t + 1):
            assert evaluate(GF512, coeffs, GF512.alpha_pow(j)) == 0, j

    def test_generator_cached_across_instances(self):
        a = BCHCode(GF512, t=16)
        b = BCHCode(GF512, t=16, payload_bits=100)
        assert a.generator == b.generator

    def test_small_field_hamming(self):
        # t=1 BCH over GF(2^4) is the (15,11) Hamming code
        field = GF2m(4, 0b10011)
        code = BCHCode(field, t=1)
        assert (code.n_full, code.k_full) == (15, 11)


class TestWindows:
    def test_chien_window_natural(self):
        assert LAC_BCH_128_256.chien_window("natural") == (1, 511)

    def test_chien_window_transmitted(self):
        start, stop = LAC_BCH_128_256.chien_window("transmitted")
        assert start == 112
        assert stop == 511

    def test_chien_window_message(self):
        assert LAC_BCH_128_256.chien_window("message") == (112, 367)

    def test_unknown_window(self):
        with pytest.raises(ValueError):
            LAC_BCH_128_256.chien_window("bogus")

    def test_position_of_root(self):
        code = LAC_BCH_128_256
        assert code.position_of_root(511) == 0
        assert code.position_of_root(112) == 399
        assert code.position_of_root(code.chien_message_stop) == code.parity_bits


class TestValidation:
    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            BCHCode(GF512, t=0)

    def test_rejects_excess_payload(self):
        with pytest.raises(ValueError):
            BCHCode(GF512, t=16, payload_bits=368)

    def test_rejects_huge_t(self):
        field = GF2m(4, 0b10011)
        with pytest.raises(ValueError):
            BCHCode(field, t=8)
