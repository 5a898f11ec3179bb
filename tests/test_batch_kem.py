"""Batch engine parity tests: the vectorized fast path must be
bit-identical to looping the scalar KEM across all LAC parameter sets.
"""

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import ThreadBackend
from repro.batch import sampling as batch_sampling
from repro.batch.encode import bch_encode_many, encode_many
from repro.batch.kem import decaps_many, encaps_many, keygen_many
from repro.batch.sampling import gen_a_vec, sample_secret_rows
from repro.bch.encoder import BCHEncoder
from repro.hashes.prng import Sha256Prng
from repro.lac.encoding import MessageCodec
from repro.lac.kem import LacKem, split_seed
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_192, LAC_256
from repro.lac.pke import Ciphertext
from repro.lac.sampling import (
    gen_a,
    sample_secret_and_error,
    sample_ternary_fixed_weight,
)
from repro.schemes import LAC_SCHEME


@pytest.fixture(params=ALL_PARAMS, ids=lambda p: p.name)
def params(request):
    return request.param


@pytest.fixture(scope="module")
def kems():
    cache = {}

    def get(params):
        if params.name not in cache:
            kem = LacKem(params)
            pair = kem.keygen(bytes(range(32)) * 2 + b"\x01" * 32)
            cache[params.name] = (kem, pair)
        return cache[params.name]

    return get


@pytest.fixture(scope="module")
def pool_backend():
    """A three-thread pool, reached the one way a batch reaches a
    backend: :meth:`~repro.backend.KemBackend.submit`."""
    backend = ThreadBackend(workers=3)
    yield backend
    backend.close()


def _submit(backend, kem, pair, op, items):
    """One LAC batch through ``backend.submit``, every lane under ``pair``."""
    return backend.submit(
        LAC_SCHEME, kem.params, op, [pair] * len(items), items
    ).result()


def _messages(params, count):
    return [bytes([i & 0xFF, 0x5A]) * (params.message_bytes // 2) for i in range(count)]


class TestSamplingParity:
    def test_fixed_weight_matches_scalar(self, params):
        rows = sample_secret_rows([b"seed"], params, 3)
        for j, row in enumerate(rows):
            # row j is drawn from the seed's j-th ``poly`` child stream
            child = Sha256Prng(b"seed").fork(b"poly" + j.to_bytes(2, "little"))
            slow = sample_ternary_fixed_weight(child, params)
            assert np.array_equal(row, slow.coeffs)
            assert np.count_nonzero(row == 1) == params.h // 2
            assert np.count_nonzero(row == -1) == params.h // 2

    def test_secret_and_error_matches_scalar(self, params):
        # the key-generation shape: one seed, its s and e rows
        seed = b"\x42" * 32
        rows = sample_secret_rows([seed], params, 2)
        slow = sample_secret_and_error(seed, params, how_many=2)
        for row, poly in zip(rows, slow, strict=True):
            assert np.array_equal(row, poly.coeffs)

    def test_secret_rows_matches_scalar(self, params):
        seeds = [bytes([i]) * 32 for i in range(8)]
        rows = sample_secret_rows(seeds, params, 3)
        assert rows.shape == (24, params.n)
        for b, seed in enumerate(seeds):
            ref = sample_secret_and_error(seed, params, how_many=3)
            for j in range(3):
                assert np.array_equal(rows[b * 3 + j], ref[j].coeffs)

    def test_gen_a_matches_scalar(self, params):
        seed = b"\x17" * params.seed_bytes
        assert np.array_equal(gen_a_vec(seed, params), gen_a(seed, params))

    def test_window_past_the_16_bit_packing_raises(self, monkeypatch):
        # a candidate packs (index << 16) | stream position into a uint32
        with pytest.raises(ValueError, match="16-bit packing"):
            sample_secret_rows([bytes(32)], SimpleNamespace(n=1 << 17, h=256), 1)
        monkeypatch.setattr(batch_sampling, "_window_blocks", lambda params: 4096)
        with pytest.raises(ValueError, match="16-bit packing"):
            sample_secret_rows([bytes(32)], LAC_128, 1)


def _traced_peak_mib(call) -> float:
    """Peak traced allocation of ``call()`` above what was live before,
    in MiB; a first, untraced call builds tables and caches."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - live) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTransientBudget:
    """The batch kernels' transient arrays at B = 64, ~20 % above what
    they peak at with every value in the narrowest dtype that holds it
    (q = 251: bytes; the sampler's candidates: 16 bits).  ``peak_rss_mb``
    is gated at 5 %, and each backend thread's allocator arena keeps its
    largest batch, so a wider temporary shows up served."""

    B = 64
    #: MiB: sample_secret_rows (three rows per lane, as ENCAPS draws),
    #: MessageCodec.decode_many, encaps_many, decaps_many
    BUDGETS = {
        "LAC-128": {"sample": 1.2, "decode": 0.77, "encaps": 1.37, "decaps": 1.57},
        "LAC-256": {"sample": 1.77, "decode": 0.77, "encaps": 2.17, "decaps": 2.49},
    }

    @pytest.mark.parametrize("params", [LAC_128, LAC_256], ids=lambda p: p.name)
    def test_kernel_peaks_stay_in_budget(self, params, kems):
        kem, pair = kems(params)
        messages = _messages(params, self.B)
        seeds = [hashlib.sha256(message).digest() for message in messages]
        cts = [r.ciphertext for r in encaps_many(kem, pair.public_key, messages)]
        # the rows DECAPS thresholds, v - u*s mod q, held as the scalar
        # decrypt holds them (int64): the threshold's own temporaries are
        # narrow whatever the width it is handed
        us = params.ring.mul_many(
            pair.secret_key.sk.s.coeffs, np.stack([ct.u for ct in cts])
        )[:, : params.v_slots]
        codec = kem.pke.codec
        noisy = np.stack(
            [
                np.mod(codec.decompress_v(ct.v_compressed) - row, params.q)
                for ct, row in zip(cts, us)
            ]
        )
        peaks = {
            "sample": _traced_peak_mib(lambda: sample_secret_rows(seeds, params, 3)),
            "decode": _traced_peak_mib(lambda: codec.decode_many(noisy)),
            "encaps": _traced_peak_mib(
                lambda: encaps_many(kem, pair.public_key, messages)
            ),
            "decaps": _traced_peak_mib(
                lambda: decaps_many(kem, pair.secret_key, cts)
            ),
        }
        budgets = self.BUDGETS[params.name]
        over = {
            stage: f"{peak:.3f} > {budgets[stage]} MiB"
            for stage, peak in peaks.items()
            if peak > budgets[stage]
        }
        assert not over, over


class TestEncodeParity:
    def test_bch_encode_many_matches_encoder(self, params):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (16, params.bch.k), dtype=np.uint8)
        batch = bch_encode_many(params.bch, bits)
        encoder = BCHEncoder(params.bch)
        for row, expected in zip(batch, (encoder.encode(b) for b in bits)):
            assert np.array_equal(row, expected)

    def test_encode_many_matches_codec(self, params):
        messages = _messages(params, 8)
        codec = MessageCodec(params)
        batch = encode_many(params, messages)
        for row, message in zip(batch, messages):
            assert np.array_equal(row, codec.encode(message))


class TestKemParity:
    def test_encaps_many_matches_scalar_loop(self, params, kems):
        kem, pair = kems(params)
        messages = _messages(params, 16)
        batch = kem.encaps_many(pair.public_key, messages)
        for message, result in zip(messages, batch):
            scalar = kem.encaps(pair.public_key, message)
            assert scalar.ciphertext.to_bytes() == result.ciphertext.to_bytes()
            assert scalar.shared_secret == result.shared_secret

    def test_decaps_many_matches_scalar_loop(self, params, kems):
        kem, pair = kems(params)
        messages = _messages(params, 16)
        cts = [r.ciphertext for r in kem.encaps_many(pair.public_key, messages)]
        batch = kem.decaps_many(pair.secret_key, cts)
        assert batch == [kem.decaps(pair.secret_key, ct) for ct in cts]

    def test_roundtrip_shared_secrets(self, params, kems):
        kem, pair = kems(params)
        results = kem.encaps_many(pair.public_key, count=8)
        shared = kem.decaps_many(
            pair.secret_key, [r.ciphertext for r in results]
        )
        assert shared == [r.shared_secret for r in results]

    def test_implicit_rejection_matches_scalar(self, params, kems):
        kem, pair = kems(params)
        message = _messages(params, 1)[0]
        good = kem.encaps(pair.public_key, message).ciphertext
        tampered = Ciphertext(
            params, np.mod(good.u + 1, params.q), good.v_compressed
        )
        batch = kem.decaps_many(pair.secret_key, [good, tampered])
        assert batch[0] == kem.decaps(pair.secret_key, good)
        assert batch[1] == kem.decaps(pair.secret_key, tampered)
        assert batch[0] != batch[1]

    def test_workers_fan_out_preserves_order(self, kems, pool_backend):
        kem, pair = kems(LAC_128)
        messages = _messages(LAC_128, 12)
        serial = kem.encaps_many(pair.public_key, messages)
        threaded = _submit(pool_backend, kem, pair, "ENCAPS", messages)
        assert threaded == [
            (r.ciphertext.to_bytes(), r.shared_secret) for r in serial
        ]
        cts = [r.ciphertext for r in serial]
        assert _submit(
            pool_backend, kem, pair, "DECAPS", [ct.to_bytes() for ct in cts]
        ) == kem.decaps_many(pair.secret_key, cts)

    def test_empty_batch(self, kems):
        kem, pair = kems(LAC_128)
        assert kem.encaps_many(pair.public_key, []) == []
        assert kem.decaps_many(pair.secret_key, []) == []

    def test_argument_validation(self, kems):
        kem, pair = kems(LAC_128)
        with pytest.raises(ValueError):
            kem.encaps_many(pair.public_key)  # neither messages nor count
        with pytest.raises(ValueError):
            kem.encaps_many(pair.public_key, [b"short"])
        with pytest.raises(ValueError):
            kem.encaps_many(
                pair.public_key, _messages(LAC_128, 2), count=3
            )

    def test_count_generates_random_messages(self, kems):
        kem, pair = kems(LAC_128)
        results = kem.encaps_many(pair.public_key, count=4)
        assert len(results) == 4
        assert len({r.shared_secret for r in results}) == 4


class TestEdgeBatchSizes:
    """Batch sizes 0 and 1 across every parameter set: the degenerate
    shapes a serving layer routinely produces (empty flush, lone
    deadline-expired request)."""

    def test_batch_size_zero(self, params, kems, pool_backend):
        kem, pair = kems(params)
        assert kem.encaps_many(pair.public_key, []) == []
        assert _submit(pool_backend, kem, pair, "ENCAPS", []) == []
        assert kem.encaps_many(pair.public_key, count=0) == []
        assert kem.decaps_many(pair.secret_key, []) == []
        assert _submit(pool_backend, kem, pair, "DECAPS", []) == []

    def test_batch_size_one_matches_scalar(self, params, kems):
        kem, pair = kems(params)
        message = _messages(params, 1)[0]
        scalar = kem.encaps(pair.public_key, message)
        (batch,) = kem.encaps_many(pair.public_key, [message])
        assert batch.ciphertext.to_bytes() == scalar.ciphertext.to_bytes()
        assert batch.shared_secret == scalar.shared_secret
        assert kem.decaps_many(pair.secret_key, [batch.ciphertext]) == [
            kem.decaps(pair.secret_key, scalar.ciphertext)
        ]

    def test_batch_size_one_with_workers(self, params, kems, pool_backend):
        # one lane on a three-thread pool must not crash
        kem, pair = kems(params)
        message = _messages(params, 1)[0]
        scalar = kem.encaps(pair.public_key, message)
        assert _submit(pool_backend, kem, pair, "ENCAPS", [message]) == [
            (scalar.ciphertext.to_bytes(), scalar.shared_secret)
        ]

    def test_count_one(self, params, kems):
        kem, pair = kems(params)
        (result,) = kem.encaps_many(pair.public_key, count=1)
        assert kem.decaps_many(pair.secret_key, [result.ciphertext]) == [
            result.shared_secret
        ]


#: A LAC-128 seed whose ``s`` row has fewer than h distinct indices in
#: :func:`sample_secret_rows`' fixed candidate window, so that row
#: squeezes past the window.
SHORT_WINDOW_SEED = bytes([65, 0]) * 32


class _SqueezeTally:
    """``hashlib`` as :mod:`repro.batch.sampling` sees it, counting each
    SHA-256 construction (a row's fork and its stream base) and each
    squeezed block (one ``copy`` of a stream base per block)."""

    def __init__(self):
        self.hashes = 0
        self.blocks = 0

    def sha256(self, data=b""):
        self.hashes += 1
        return _CountedHash(hashlib.sha256(data), self)


class _CountedHash:
    def __init__(self, inner, tally):
        self._inner = inner
        self._tally = tally

    def copy(self):
        self._tally.blocks += 1
        return _CountedHash(self._inner.copy(), self._tally)

    def update(self, data):
        self._inner.update(data)

    def digest(self):
        return self._inner.digest()


def _scalar_blocks(seed, params, j):
    """SHA-256 blocks the scalar sampler reads for row ``j`` of ``seed``."""
    child = Sha256Prng(seed).fork(b"poly" + j.to_bytes(2, "little"))
    seen, draws = set(), 0
    while len(seen) < params.h:
        seen.add(int.from_bytes(child.read(2), "little") & (params.n - 1))
        draws += 1
    return -(-draws // 16)


class TestShortWindowTopUp:
    """A row whose fixed window holds fewer than h distinct indices
    keeps squeezing its own stream: it matches the scalar sampler and
    costs exactly the blocks the scalar loop reads, nothing twice.

    The LAC-128 seeds were found by scanning ``bytes([i, 0]) * 32``,
    i = 0..255 (8 short rows).  At LAC-192 and LAC-256 a short window
    is a 10- and 7-sigma event, so none is in reach; there the window is
    cut to h candidates, which leaves every row short."""

    @pytest.mark.parametrize(
        "params, seed, short_row, window",
        [
            (LAC_128, bytes([80, 0]) * 32, 0, None),
            (LAC_128, bytes([28, 0]) * 32, 1, None),
            (LAC_128, bytes([39, 0]) * 32, 2, None),
            (LAC_192, bytes([0, 0]) * 32, 0, LAC_192.h // 16),
            (LAC_256, bytes([0, 0]) * 32, 0, LAC_256.h // 16),
        ],
        ids=["LAC-128-row0", "LAC-128-row1", "LAC-128-row2", "LAC-192", "LAC-256"],
    )
    def test_short_row_is_topped_up(self, monkeypatch, params, seed, short_row, window):
        if window is not None:
            monkeypatch.setattr(batch_sampling, "_window_blocks", lambda p: window)
        blocks = batch_sampling._window_blocks(params)
        needed = [_scalar_blocks(seed, params, j) for j in range(3)]
        assert needed[short_row] > blocks  # the pinned row is short

        tally = _SqueezeTally()
        with monkeypatch.context() as patch:
            patch.setattr(batch_sampling, "hashlib", tally)
            rows = sample_secret_rows([seed], params, 3)
        reference = sample_secret_and_error(seed, params, how_many=3)
        for row, poly in zip(rows, reference, strict=True):
            assert np.array_equal(row, poly.coeffs)
        # one fork and one stream base per row: no row hashed again
        assert tally.hashes == 2 * 3
        # the window, plus each short row's own top-up blocks
        assert tally.blocks == sum(max(blocks, k) for k in needed)


def _keygen_seeds(params, count):
    # twice the length keygen reads: the bytes past z must be ignored
    return [bytes([i, 0x3C]) * (params.seed_bytes + 32) for i in range(count)]


def _assert_same_pair(batch, scalar):
    assert batch.public_key.to_bytes() == scalar.public_key.to_bytes()
    assert batch.secret_key.to_bytes() == scalar.secret_key.to_bytes()
    assert batch.secret_key.pk_digest == scalar.secret_key.pk_digest
    assert batch.secret_key.z == scalar.secret_key.z
    assert np.array_equal(
        batch.secret_key.sk.s.coeffs, scalar.secret_key.sk.s.coeffs
    )


class TestKeygenParity:
    """``keygen_many`` is the batch twin of the scalar ``LacKem.keygen``."""

    @pytest.mark.parametrize("count", [1, 5, 64])
    def test_keygen_many_matches_scalar(self, params, count):
        kem = LacKem(params)
        seeds = _keygen_seeds(params, count)
        pairs = keygen_many(kem, seeds)
        assert len(pairs) == count
        for pair, seed in zip(pairs, seeds):
            _assert_same_pair(pair, kem.keygen(seed))

    def test_short_window_row_takes_the_fallback(self, monkeypatch):
        # the fallback for a short window is the row's own top-up
        kem = LacKem(LAC_128)
        pke_seed, _ = split_seed(LAC_128, SHORT_WINDOW_SEED)
        seed_sk = Sha256Prng(pke_seed).fork(b"seed-sk").seed
        blocks = batch_sampling._window_blocks(LAC_128)
        needed = [_scalar_blocks(seed_sk, LAC_128, j) for j in range(2)]
        assert needed[0] > blocks  # the ``s`` row is short

        tally = _SqueezeTally()
        with monkeypatch.context() as patch:
            patch.setattr(batch_sampling, "hashlib", tally)
            [pair] = keygen_many(kem, [SHORT_WINDOW_SEED])
        assert tally.hashes == 2 * 2
        assert tally.blocks == sum(max(blocks, k) for k in needed)
        _assert_same_pair(pair, kem.keygen(SHORT_WINDOW_SEED))

    def test_scheme_keygen_runs_the_batch_kernel(self, params):
        kem = LacKem(params)
        seed = _keygen_seeds(params, 1)[0]
        _assert_same_pair(LAC_SCHEME.keygen(params, seed), kem.keygen(seed))

    def test_no_seed_draws_a_fresh_key(self, params):
        first = LAC_SCHEME.keygen(params)
        second = LAC_SCHEME.keygen(params)
        assert first.public_key.to_bytes() != second.public_key.to_bytes()
        assert first.secret_key.z != second.secret_key.z
        ct, shared = LAC_SCHEME.encaps_many(
            params, first, [b"\x07" * params.message_bytes]
        )[0]
        assert LAC_SCHEME.decaps_many(params, first, [ct]) == [shared]

    def test_short_seed_raises_like_scalar(self, params):
        short = b"\x01" * (params.seed_bytes + 31)
        with pytest.raises(ValueError, match="seed must provide"):
            LacKem(params).keygen(short)
        with pytest.raises(ValueError, match="seed must provide"):
            keygen_many(LacKem(params), [b"\x01" * 64 * 2, short])
        with pytest.raises(ValueError, match="seed must provide"):
            LAC_SCHEME.keygen(params, short)

    def test_empty_batch(self):
        assert keygen_many(LacKem(LAC_128), []) == []
