"""Tests for the SHA-256 golden model, the counted hasher and the PRNG."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashes.prng import Sha256Prng
from repro.hashes.sha256 import IV, SHA256, compress, pad, sha256
from repro.metrics import OpCounter


class TestSha256Vectors:
    def test_empty(self):
        assert sha256(b"") == hashlib.sha256(b"").digest()

    def test_abc(self):
        assert (
            SHA256(b"abc").hexdigest()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_exactly_one_block(self):
        data = bytes(64)
        assert sha256(data) == hashlib.sha256(data).digest()

    def test_block_boundary_55_56(self):
        # padding straddles the block boundary between 55 and 56 bytes
        for n in (54, 55, 56, 57, 63, 64, 65):
            data = bytes(range(n % 256)) * 1 if n < 256 else b""
            data = bytes(n)
            assert sha256(data) == hashlib.sha256(data).digest(), n

    @given(data=st.binary(max_size=300))
    @settings(max_examples=50)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(chunks=st.lists(st.binary(max_size=70), max_size=6))
    @settings(max_examples=30)
    def test_incremental_updates(self, chunks):
        hasher = SHA256()
        reference = hashlib.sha256()
        for chunk in chunks:
            hasher.update(chunk)
            reference.update(chunk)
        assert hasher.digest() == reference.digest()

    def test_digest_idempotent(self):
        hasher = SHA256(b"hello")
        assert hasher.digest() == hasher.digest()

    def test_copy_independent(self):
        hasher = SHA256(b"abc")
        clone = hasher.copy()
        hasher.update(b"def")
        assert clone.digest() == hashlib.sha256(b"abc").digest()
        assert hasher.digest() == hashlib.sha256(b"abcdef").digest()

    def test_compress_rejects_short_block(self):
        with pytest.raises(ValueError):
            compress(IV, b"short")

    def test_pad_length_multiple_of_64(self):
        for n in range(0, 130):
            assert (n + len(pad(n))) % 64 == 0

    def test_counts_blocks(self):
        counter = OpCounter()
        sha256(bytes(130), counter)  # 130 bytes -> 3 blocks after padding
        assert counter.totals()["sha256_block"] == 3


def _fold(message):
    """The golden model: ``compress`` over ``message + pad(len)`` from IV.

    Returns the digest and the number of ``compress`` calls it took.
    """
    tail = message + pad(len(message))
    state, calls = IV, 0
    for offset in range(0, len(tail), 64):
        state = compress(state, tail[offset : offset + 64])
        calls += 1
    return struct.pack(">8I", *state), calls


def _blocks(counter):
    return counter.totals()["sha256_block"]


@st.composite
def _split_messages(draw):
    """A 0-300 byte message, sorted update split points, a copy point."""
    message = draw(st.binary(max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(message)), max_size=5)))
    copy_at = draw(st.integers(0, len(message)))
    return message, cuts, copy_at


class TestGoldenModel:
    """``compress`` is no longer run by :class:`SHA256`; check it alone,
    and check that the counted hasher prices exactly its calls."""

    @given(message=st.binary(max_size=300))
    @settings(max_examples=60)
    def test_fold_matches_hashlib(self, message):
        digest, calls = _fold(message)
        assert digest == hashlib.sha256(message).digest()
        assert calls == (len(message) + 8) // 64 + 1

    @given(case=_split_messages())
    @settings(max_examples=60)
    def test_counted_hasher_prices_the_fold(self, case):
        message, cuts, _ = case
        counter = OpCounter()
        hasher = SHA256(counter=counter)
        for start, stop in zip([0] + cuts, cuts + [len(message)]):
            hasher.update(message[start:stop])
        assert _blocks(counter) == len(message) // 64
        digest, calls = _fold(message)
        assert hasher.digest() == digest == hashlib.sha256(message).digest()
        assert _blocks(counter) == calls

    @given(message=st.binary(max_size=300))
    @settings(max_examples=30)
    def test_digest_twice_prices_the_tail_twice(self, message):
        counter = OpCounter()
        hasher = SHA256(message, counter=counter)
        first = hasher.digest()
        _, calls = _fold(message)
        tail = calls - len(message) // 64
        assert hasher.digest() == first == hashlib.sha256(message).digest()
        assert _blocks(counter) == calls + tail

    @given(case=_split_messages(), suffix=st.binary(max_size=150))
    @settings(max_examples=60)
    def test_copy_at_a_random_point(self, case, suffix):
        message, _, copy_at = case
        prefix = message[:copy_at]
        counter = OpCounter()
        hasher = SHA256(prefix, counter=counter)
        clone = hasher.copy()
        hasher.update(message[copy_at:])
        clone.update(suffix)
        digest, calls = _fold(message)
        clone_digest, clone_calls = _fold(prefix + suffix)
        assert hasher.digest() == digest
        assert clone.digest() == clone_digest
        # the shared prefix blocks were compressed once, before the copy
        assert _blocks(counter) == calls + clone_calls - len(prefix) // 64

    @given(seed=st.binary(min_size=1, max_size=150), label=st.binary(max_size=150))
    @settings(max_examples=40)
    def test_fork_on_a_counted_stream(self, seed, label):
        counter = OpCounter()
        child = Sha256Prng(seed, counter=counter).fork(label)
        child_seed, calls = _fold(seed + label)
        assert child.seed == child_seed
        assert _blocks(counter) == calls
        assert child.read(40) == Sha256Prng(seed).fork(label).read(40)


class TestPrng:
    def test_deterministic(self):
        assert Sha256Prng(b"seed").read(100) == Sha256Prng(b"seed").read(100)

    def test_different_seeds_differ(self):
        assert Sha256Prng(b"a").read(32) != Sha256Prng(b"b").read(32)

    def test_stream_consistency_across_read_sizes(self):
        whole = Sha256Prng(b"x").read(64)
        prng = Sha256Prng(b"x")
        assert prng.read(10) + prng.read(54) == whole

    def test_read_zero(self):
        assert Sha256Prng(b"s").read(0) == b""

    def test_read_negative(self):
        with pytest.raises(ValueError):
            Sha256Prng(b"s").read(-1)

    def test_rejects_non_bytes_seed(self):
        with pytest.raises(TypeError):
            Sha256Prng("string")

    def test_helpers(self):
        prng = Sha256Prng(b"s")
        assert 0 <= prng.read_u8() < 256
        assert 0 <= prng.read_u32() < 2**32

    def test_fork_domain_separation(self):
        root = Sha256Prng(b"root")
        a = root.fork(b"a")
        b = root.fork(b"b")
        assert a.read(32) != b.read(32)
        # forking again with the same label reproduces the child
        assert Sha256Prng(b"root").fork(b"a").read(32) == Sha256Prng(b"root").fork(b"a").read(32)

    def test_counts_blocks_and_bytes(self):
        counter = OpCounter()
        Sha256Prng(b"seed", counter=counter).read(64)
        totals = counter.totals()
        # two refills of SHA256(4-byte seed || 4-byte index): 1 block each
        assert totals["sha256_block"] == 2
        assert totals["prng_byte"] == 64


class TestPrngRegression:
    """The incremental-state refill must not change the output stream."""

    @staticmethod
    def _reference_stream(seed: bytes, nbytes: int) -> bytes:
        # the documented definition: SHA256(seed || LE32(i)) blocks
        out = b""
        index = 0
        while len(out) < nbytes:
            out += hashlib.sha256(seed + index.to_bytes(4, "little")).digest()
            index += 1
        return out[:nbytes]

    @given(seed=st.binary(min_size=1, max_size=200),
           nbytes=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40)
    def test_stream_matches_definition(self, seed, nbytes):
        assert Sha256Prng(seed).read(nbytes) == self._reference_stream(seed, nbytes)

    def test_long_seed_stream_matches_definition(self):
        # seeds longer than one compression block exercise the cloned
        # pre-absorbed state across a block boundary
        seed = bytes(range(200))
        assert Sha256Prng(seed).read(2048) == self._reference_stream(seed, 2048)

    def test_counted_and_fast_streams_identical(self):
        seed = b"stream-parity" * 11  # 143 bytes, > 2 blocks
        fast = Sha256Prng(seed).read(512)
        counted = Sha256Prng(seed, counter=OpCounter()).read(512)
        assert fast == counted

    def test_seed_absorbed_once(self):
        # 100-byte seed: absorbing it costs one compression (done once);
        # each of the 10 output blocks then costs exactly one more.  The
        # old re-absorb-per-refill behaviour would have counted 20.
        counter = OpCounter()
        Sha256Prng(bytes(100), counter=counter).read(320)
        assert counter.totals()["sha256_block"] == 1 + 10

    def test_fork_fast_path_matches_counted(self):
        fast_child = Sha256Prng(b"root").fork(b"label")
        counted_child = Sha256Prng(b"root", counter=OpCounter()).fork(b"label")
        assert fast_child.read(64) == counted_child.read(64)

    def test_interleaved_reads_preserve_stream(self):
        whole = Sha256Prng(b"interleave").read(5000)
        prng = Sha256Prng(b"interleave")
        pieces = []
        for size in (1, 31, 32, 33, 4000, 903):
            pieces.append(prng.read(size))
        assert b"".join(pieces) == whole
