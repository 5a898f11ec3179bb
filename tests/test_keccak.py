"""Tests for the from-scratch Keccak/SHAKE implementation."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashes.keccak import (
    KeccakSponge,
    ShakePrng,
    keccak_f1600,
    shake128,
    shake256,
)
from repro.metrics import OpCounter


class TestPermutation:
    def test_state_size_enforced(self):
        with pytest.raises(ValueError):
            keccak_f1600([0] * 24)

    def test_zero_state_known_value(self):
        # first lane of Keccak-f[1600] applied to the all-zero state
        out = keccak_f1600([0] * 25)
        assert out[0] == 0xF1258F7940E1DDE7

    def test_permutation_is_deterministic(self):
        state = list(range(25))
        assert keccak_f1600(state) == keccak_f1600(list(range(25)))

    def test_output_lanes_in_range(self):
        for lane in keccak_f1600(list(range(25))):
            assert 0 <= lane < 1 << 64


class TestShakeVectors:
    def test_shake128_empty(self):
        assert shake128(b"", 32) == hashlib.shake_128(b"").digest(32)

    def test_shake256_empty(self):
        assert shake256(b"", 32) == hashlib.shake_256(b"").digest(32)

    @given(data=st.binary(max_size=400), n=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_shake128_matches_hashlib(self, data, n):
        assert shake128(data, n) == hashlib.shake_128(data).digest(n)

    @given(data=st.binary(max_size=300), n=st.integers(1, 100))
    @settings(max_examples=20, deadline=None)
    def test_shake256_matches_hashlib(self, data, n):
        assert shake256(data, n) == hashlib.shake_256(data).digest(n)

    def test_rate_boundary_messages(self):
        # absorb exactly one rate, one rate - 1, one rate + 1
        for size in (167, 168, 169, 335, 336, 337):
            data = bytes(size)
            assert shake128(data, 64) == hashlib.shake_128(data).digest(64), size

    def test_incremental_absorb(self):
        sponge = KeccakSponge(168)
        sponge.absorb(b"hello ")
        sponge.absorb(b"world")
        assert sponge.squeeze(32) == hashlib.shake_128(b"hello world").digest(32)

    def test_incremental_squeeze(self):
        sponge = KeccakSponge(168).absorb(b"data")
        out = sponge.squeeze(5) + sponge.squeeze(200) + sponge.squeeze(11)
        assert out == hashlib.shake_128(b"data").digest(216)

    def test_absorb_after_squeeze_rejected(self):
        sponge = KeccakSponge(168).absorb(b"x")
        sponge.squeeze(1)
        with pytest.raises(RuntimeError):
            sponge.absorb(b"more")

    def test_negative_squeeze(self):
        with pytest.raises(ValueError):
            KeccakSponge(168).squeeze(-1)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            KeccakSponge(0)
        with pytest.raises(ValueError):
            KeccakSponge(200)

    def test_counts_permutations(self):
        counter = OpCounter()
        shake128(bytes(200), 200, counter=counter)
        # 200 bytes absorb = 2 blocks; 200 bytes squeeze = 2 more
        assert counter.totals()["keccak_f"] == 4


class TestShakePrng:
    def test_deterministic(self):
        assert ShakePrng(b"seed").read(100) == ShakePrng(b"seed").read(100)

    def test_matches_shake_stream(self):
        assert ShakePrng(b"abc").read(500) == hashlib.shake_128(b"abc").digest(500)

    def test_stream_split_consistency(self):
        whole = ShakePrng(b"x").read(100)
        prng = ShakePrng(b"x")
        assert prng.read(37) + prng.read(63) == whole

    def test_fork_differs(self):
        root = ShakePrng(b"root")
        assert root.fork(b"a").read(16) != root.fork(b"b").read(16)

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            ShakePrng("string")

    def test_counts_bytes(self):
        counter = OpCounter()
        ShakePrng(b"c", counter=counter).read(50)
        assert counter.totals()["prng_byte"] == 50
        assert counter.totals()["keccak_f"] >= 1

    def test_helpers(self):
        prng = ShakePrng(b"h")
        assert 0 <= prng.read_u8() < 256
        assert 0 <= prng.read_u32() < 2**32
