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
    """The from-scratch sponge against ``hashlib``.

    A live counter pins the pure-Python sponge: uncounted calls delegate
    to ``hashlib`` and would compare it with itself.
    """

    def test_shake128_empty(self):
        assert shake128(b"", 32, OpCounter()) == hashlib.shake_128(b"").digest(32)

    def test_shake256_empty(self):
        assert shake256(b"", 32, OpCounter()) == hashlib.shake_256(b"").digest(32)

    @given(data=st.binary(max_size=400), n=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_shake128_matches_hashlib(self, data, n):
        assert shake128(data, n, OpCounter()) == hashlib.shake_128(data).digest(n)

    @given(data=st.binary(max_size=300), n=st.integers(1, 100))
    @settings(max_examples=20, deadline=None)
    def test_shake256_matches_hashlib(self, data, n):
        assert shake256(data, n, OpCounter()) == hashlib.shake_256(data).digest(n)

    def test_rate_boundary_messages(self):
        # absorb exactly one rate, one rate - 1, one rate + 1
        for size in (167, 168, 169, 335, 336, 337):
            data = bytes(size)
            pure = shake128(data, 64, OpCounter())
            assert pure == hashlib.shake_128(data).digest(64), size

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


class TestFastPath:
    """Uncounted SHAKE goes through ``hashlib``; the stream must not change."""

    @pytest.fixture
    def no_python_permutation(self, monkeypatch):
        def forbidden(state):
            raise AssertionError("the pure-Python permutation ran uncounted")

        monkeypatch.setattr("repro.hashes.keccak.keccak_f1600", forbidden)

    def test_uncounted_calls_skip_the_python_sponge(self, no_python_permutation):
        assert shake128(b"abc", 400) == hashlib.shake_128(b"abc").digest(400)
        assert shake256(b"abc", 400) == hashlib.shake_256(b"abc").digest(400)
        prng = ShakePrng(b"seed")
        prng.read(7)
        prng.fork(b"child").read_u32()
        prng.uniform_below(12289)

    def test_counted_calls_still_count(self):
        counter = OpCounter()
        assert shake256(bytes(10), 300, counter) == shake256(bytes(10), 300)
        # one absorb block, 300 bytes squeezed at rate 136 = three more
        assert counter.totals()["keccak_f"] == 4

    @given(
        seed=st.binary(max_size=200),
        reads=st.lists(st.integers(0, 700), min_size=1, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_prng_stream_matches_the_sponge_at_any_split(self, seed, reads):
        fast = ShakePrng(seed)
        stream = KeccakSponge(168).absorb(seed).squeeze(sum(reads))
        offset = 0
        for n in reads:
            assert fast.read(n) == stream[offset : offset + n]
            offset += n

    @given(seed=st.binary(min_size=1, max_size=64), label=st.binary(max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_fork_matches_counted_fork(self, seed, label):
        fast = ShakePrng(seed).fork(label)
        pure = ShakePrng(seed, counter=OpCounter()).fork(label)
        assert fast.seed == pure.seed
        assert fast.read(40) == pure.read(40)

    def test_negative_read_rejected_on_both_paths(self):
        with pytest.raises(ValueError):
            ShakePrng(b"x").read(-1)
        with pytest.raises(ValueError):
            ShakePrng(b"x", counter=OpCounter()).read(-1)


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

    @given(bound=st.integers(2, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_uniform_below(self, bound):
        assert 0 <= ShakePrng(b"u").uniform_below(bound) < bound

    def test_uniform_below_edge(self):
        assert ShakePrng(b"u").uniform_below(1) == 0
        with pytest.raises(ValueError):
            ShakePrng(b"u").uniform_below(0)

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
