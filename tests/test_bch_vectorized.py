"""Parity tests: the numpy BCH engine vs the golden scalar loops.

The numpy kernels — one word at a time or a whole batch as the vector
axis — are a pure acceleration: for every input the decoder must return
exactly what the scalar engine returns, and a cycle-accounted run on
them must charge exactly the counts of the scalar engine, so Table I
stays exact (phase by phase in ``tests/test_bulk_counts.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bch.code import LAC_BCH_128_256, LAC_BCH_192
from repro.bch.ct_decoder import ConstantTimeBCHDecoder, _code_tables
from repro.lac.encoding import MessageCodec
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS
from repro.lac.pke import Ciphertext
from repro.metrics import NullCounter, OpCounter
from tests.test_bch_decoder import make_word


@pytest.fixture(params=[LAC_BCH_128_256, LAC_BCH_192], ids=["t16", "t8"])
def code(request):
    return request.param


def _assert_same_result(fast, slow):
    assert fast.success == slow.success
    assert fast.errors_found == slow.errors_found
    assert np.array_equal(fast.codeword, slow.codeword)
    assert np.array_equal(fast.message, slow.message)


class TestEngineParity:
    @pytest.mark.parametrize("n_errors", [0, 1, 2, 7])
    def test_fixed_error_counts(self, code, n_errors):
        _, _, word = make_word(code, n_errors, seed=n_errors + 3)
        fast = ConstantTimeBCHDecoder(code).decode(word)
        slow = ConstantTimeBCHDecoder(code)._decode_scalar(word)
        _assert_same_result(fast, slow)

    def test_full_error_budget(self, code):
        _, codeword, word = make_word(code, code.t, seed=99)
        fast = ConstantTimeBCHDecoder(code).decode(word)
        slow = ConstantTimeBCHDecoder(code)._decode_scalar(word)
        _assert_same_result(fast, slow)
        assert fast.success
        assert np.array_equal(fast.codeword, codeword)

    def test_beyond_error_budget(self, code):
        # t+2 errors: both engines must fail (or mis-correct) identically
        _, _, word = make_word(code, code.t + 2, seed=5)
        fast = ConstantTimeBCHDecoder(code).decode(word)
        slow = ConstantTimeBCHDecoder(code)._decode_scalar(word)
        assert fast.success == slow.success
        assert np.array_equal(fast.codeword, slow.codeword)

    @given(n_errors=st.integers(min_value=0, max_value=16),
           seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_random_words(self, n_errors, seed):
        code = LAC_BCH_128_256
        _, _, word = make_word(code, n_errors, seed=seed)
        fast = ConstantTimeBCHDecoder(code).decode(word)
        slow = ConstantTimeBCHDecoder(code)._decode_scalar(word)
        _assert_same_result(fast, slow)


class TestCycleModelUnaffected:
    def test_counted_runs_use_the_lanes_engine(self, code, monkeypatch):
        decoder = ConstantTimeBCHDecoder(code)
        _, _, word = make_word(code, 2, seed=4)
        expected = ConstantTimeBCHDecoder(code)._decode_scalar(word)

        def golden(*args):
            raise AssertionError("the golden loop ran")

        for name in ("_syndromes_scalar", "_inversion_free_bm", "_chien_flip_scalar"):
            monkeypatch.setattr(decoder, name, golden)
        for counter in (None, NullCounter(), OpCounter()):
            _assert_same_result(decoder.decode(word, counter), expected)

    def test_counts_identical_across_engines(self, code):
        # the lanes engine charges each phase's fixed schedule in bulk;
        # the golden loops count as they run: the totals must be equal
        _, _, word = make_word(code, 4, seed=11)
        fast_counter, slow_counter = OpCounter(), OpCounter()
        fast = ConstantTimeBCHDecoder(code).decode(
            word, counter=fast_counter
        )
        slow = ConstantTimeBCHDecoder(code)._decode_scalar(
            word, counter=slow_counter
        )
        _assert_same_result(fast, slow)
        assert fast_counter.totals() == slow_counter.totals()

    def test_golden_loop_runs_no_lanes_code(self, code, monkeypatch):
        decoder = ConstantTimeBCHDecoder(code)
        _, _, word = make_word(code, 2, seed=4)
        expected = ConstantTimeBCHDecoder(code).decode(word)

        def lanes(*args):
            raise AssertionError("the lanes engine ran")

        for name in ("_syndromes_lanes", "_inversion_free_bm_lanes", "_chien_flip_lanes"):
            monkeypatch.setattr(decoder, name, lanes)
        for counter in (None, OpCounter()):
            _assert_same_result(decoder._decode_scalar(word, counter), expected)


def _stack(code, error_counts, seed, parity_region_every=4):
    """One word per entry of ``error_counts``; every few land in the parity bits."""
    words = []
    for lane, n_errors in enumerate(error_counts):
        in_parity = lane % parity_region_every == 1 and n_errors <= code.parity_bits
        region = (0, code.parity_bits) if in_parity else None
        words.append(
            make_word(code, n_errors, seed=seed + lane, error_region=region)[2]
        )
    return np.stack(words)


class TestLanesParity:
    """``decode_many`` equals looping the scalar ``decode``, lane for lane."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("window", ["natural", "message"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_matches_scalar_decode(self, params, window, data):
        code = params.bch
        lanes = data.draw(st.integers(1, 64), label="B")
        error_counts = data.draw(
            st.lists(st.integers(0, code.t + 8), min_size=lanes, max_size=lanes),
            label="errors",
        )
        words = _stack(code, error_counts, data.draw(st.integers(0, 500)))
        many = ConstantTimeBCHDecoder(code).decode_many(words, window=window)
        scalar = ConstantTimeBCHDecoder(code)
        assert len(many) == lanes
        for word, result in zip(words, many):
            _assert_same_result(result, scalar._decode_scalar(word, window=window))

    def test_garbage_words(self, code):
        rng = np.random.default_rng(3)
        words = np.stack(
            [np.zeros(code.n, np.uint8), np.ones(code.n, np.uint8)]
            + [rng.integers(0, 2, code.n).astype(np.uint8) for _ in range(5)]
        )
        scalar = ConstantTimeBCHDecoder(code)
        for word, result in zip(words, ConstantTimeBCHDecoder(code).decode_many(words)):
            _assert_same_result(result, scalar._decode_scalar(word))

    def test_input_is_not_modified_and_results_do_not_alias(self, code):
        words = _stack(code, [3, code.t, 0], seed=7)
        before = words.copy()
        results = ConstantTimeBCHDecoder(code).decode_many(words)
        assert np.array_equal(words, before)
        results[0].codeword[:] = 1
        assert not results[1].codeword.all() and not results[0].message.all()

    def test_rejects_malformed_stacks(self, code):
        decoder = ConstantTimeBCHDecoder(code)
        with pytest.raises(ValueError):
            decoder.decode_many(np.zeros(code.n, np.uint8))
        with pytest.raises(ValueError):
            decoder.decode_many(np.zeros((2, code.n + 1), np.uint8))
        with pytest.raises(ValueError):
            decoder.decode_many(np.full((2, code.n), 2, np.uint8))
        assert decoder.decode_many(np.zeros((0, code.n), np.uint8)) == []

    def test_counted_batch_runs_the_scalar_schedule(self, code):
        # the lanes engine charges the scalar schedule's counts per word
        words = _stack(code, [0, 4, code.t], seed=11)
        batch_counter, loop_counter = OpCounter(), OpCounter()
        many = ConstantTimeBCHDecoder(code).decode_many(words, batch_counter)
        for word, result in zip(words, many):
            looped = ConstantTimeBCHDecoder(code).decode(word, loop_counter)
            _assert_same_result(result, looped)
        assert batch_counter.phases == loop_counter.phases
        assert batch_counter.totals()["gf_mul_ct"] > 0

    def test_tables_are_shared_small_and_read_only(self, code):
        first = ConstantTimeBCHDecoder(code)
        first.decode_many(_stack(code, [1, 2], seed=1))
        tables = _code_tables(code)
        # one set per code, whoever asks and through whichever entry point
        ConstantTimeBCHDecoder(code).decode(_stack(code, [1], seed=2)[0])
        assert _code_tables(code) is tables
        # peak_rss_mb is gated at 5 %: everything persistent stays under 1 MiB
        assert tables.nbytes <= 1 << 20
        with pytest.raises(ValueError):
            tables.syndrome_powers[0, 0] = 1


class TestCodecAndKemParity:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_codec_decode_many_matches_looped_decode(self, params):
        # LAC-256 exercises the D2 vote, the other two the plain threshold
        codec = MessageCodec(params)
        rng = np.random.default_rng(17)
        rows = []
        for lane in range(9):
            message = bytes(rng.integers(0, 256, params.message_bytes, dtype=np.uint8))
            noisy = codec.encode(message)[: params.v_slots]
            # Gaussian-ish noise plus a few coefficients pushed across
            noisy = noisy + rng.integers(-30, 31, params.v_slots)
            flipped = rng.choice(params.codeword_bits, size=2 * lane, replace=False)
            noisy[flipped] += params.half_q
            rows.append(np.mod(noisy, params.q))
        rows = np.stack(rows)
        many = codec.decode_many(rows)
        for row, batched in zip(rows, many):
            looped = codec.decode(row)
            assert batched.message == looped.message
            assert batched.channel_errors == looped.channel_errors
            _assert_same_result(batched.bch_result, looped.bch_result)
        with pytest.raises(ValueError):
            codec.decode_many(rows[:, :-1])

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_decaps_many_with_tampered_ciphertexts(self, params):
        kem = LacKem(params)
        pair = kem.keygen(bytes(range(64)))
        messages = [bytes([i, 0x3C] * 16) for i in range(12)]
        cts = [r.ciphertext for r in kem.encaps_many(pair.public_key, messages)]
        for lane in range(0, len(cts), 4):  # 1 in 4 tampered
            good = cts[lane]
            cts[lane] = Ciphertext(
                params, np.mod(good.u + 1, params.q), good.v_compressed
            )
        batch = kem.decaps_many(pair.secret_key, cts)
        assert batch == [kem.decaps(pair.secret_key, ct) for ct in cts]
