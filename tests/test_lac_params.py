"""Tests for LAC parameter sets."""

import dataclasses

import pytest

from repro.bch.code import LAC_BCH_128_256, LAC_BCH_192
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_192, LAC_256, LacParams


class TestParameterSets:
    def test_all_params_ordering(self):
        assert ALL_PARAMS == (LAC_128, LAC_192, LAC_256)

    def test_lac128(self):
        assert LAC_128.n == 512
        assert LAC_128.h == 256
        assert LAC_128.bch is LAC_BCH_128_256
        assert not LAC_128.d2
        assert LAC_128.nist_level == "I"

    def test_lac192(self):
        assert LAC_192.n == 1024
        assert LAC_192.h == 256
        assert LAC_192.bch is LAC_BCH_192
        assert not LAC_192.d2

    def test_lac256(self):
        assert LAC_256.n == 1024
        assert LAC_256.h == 384
        assert LAC_256.bch is LAC_BCH_128_256
        assert LAC_256.d2

    def test_shared_constants(self):
        for params in ALL_PARAMS:
            assert params.q == 251
            assert params.message_bytes == 32
            assert params.seed_bytes == 32
            assert params.half_q == 125

    def test_ring_shape(self):
        for params in ALL_PARAMS:
            ring = params.ring
            assert ring.n == params.n
            assert ring.negacyclic

    def test_v_slots(self):
        assert LAC_128.v_slots == 400
        assert LAC_192.v_slots == 328
        assert LAC_256.v_slots == 800  # D2: two slots per codeword bit


class TestWireSizes:
    """Compare against the paper's Sec. VI-B size discussion."""

    def test_level_v_sizes_match_paper(self):
        # paper: ||pk|| = 1054, ||sk|| = 1024, ||ct|| = 1424 for level V
        # (our pk is 2 bytes larger: a full 32-byte GenA seed)
        assert LAC_256.secret_key_bytes == 1024
        assert LAC_256.ciphertext_bytes == 1424
        assert abs(LAC_256.public_key_bytes - 1054) <= 2

    def test_lac128_ciphertext_matches_pqm4(self):
        assert LAC_128.ciphertext_bytes == 712

    def test_sizes_monotone(self):
        assert LAC_128.public_key_bytes < LAC_192.public_key_bytes
        assert LAC_128.ciphertext_bytes < LAC_192.ciphertext_bytes <= LAC_256.ciphertext_bytes


class TestValidation:
    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dataclasses.replace(LAC_128, h=255)

    def test_ring_size_not_a_power_of_two_rejected(self):
        # the batch sampler masks 16-bit candidates with n - 1
        with pytest.raises(ValueError, match="power of two"):
            dataclasses.replace(LAC_192, n=768)

    def test_weight_above_n_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(LAC_128, h=514)

    def test_message_payload_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(LAC_128, message_bytes=16)

    def test_d2_overflow_rejected(self):
        # D2 on n=512 would need 800 slots > 512
        with pytest.raises(ValueError):
            dataclasses.replace(LAC_128, d2=True)

    def test_str(self):
        assert str(LAC_128) == "LAC-128"
