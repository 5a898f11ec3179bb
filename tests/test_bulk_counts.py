"""Bulk-charged counted routines against their golden per-iteration loops.

Every counted routine whose schedule is fixed computes its values on an
array engine and charges each phase's operation counts once per phase;
the per-iteration loops stay as the golden model, called here directly
(``ConstantTimeBCHDecoder._decode_scalar``, ``IseBchDecoder._chien_scalar``,
``_ternary_mul_loop``, ``_sample_fixed_weight_loop``, ``_gen_a_loop``).
Here each converted routine must equal its golden loop in value *and*
in :attr:`repro.metrics.OpCounter.phases`, phase by phase:

* the constant-time BCH decoder (syndromes, inversion-free BM, Chien),
  one word and a stack, both windows, 0, 1, t and t+1 errors;
* the MUL CHIEN decoder's software around the probe-by-probe unit, and
  the unit's own clock;
* the reference ternary multiplication;
* GenA and the fixed-weight sampler, whose draw count stays
  data-dependent: streams with many rejections, and a read after the
  sampler proves both consumed the stream to the same byte.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.bch.decoder import DecodeResult, _degree
from repro.cosim.accelerated import IseBchDecoder
from repro.hashes.keccak import ShakePrng
from repro.hashes.prng import Sha256Prng
from repro.lac.params import ALL_PARAMS, LAC_128
from repro.lac.sampling import (
    _gen_a_loop,
    _sample_fixed_weight_loop,
    gen_a,
    sample_ternary_fixed_weight,
)
from repro.metrics import OpCounter
from repro.ring.poly import PolyRing
from repro.ring.ternary import TernaryPoly, _ternary_mul_loop, ternary_mul
from tests.test_bch_decoder import make_word

WINDOWS = ("natural", "message")


def _phases(counter):
    """The counter's phases as plain dicts (a zero-count op would show)."""
    return {name: dict(ops) for name, ops in counter.phases.items()}


def _error_counts(code):
    return (0, 1, code.t, code.t + 1)


def _assert_same_result(bulk, golden):
    assert bulk.success == golden.success
    assert bulk.errors_found == golden.errors_found
    assert np.array_equal(bulk.codeword, golden.codeword)
    assert np.array_equal(bulk.message, golden.message)


def _run_both(bulk_run, golden_run):
    """Run the bulk and the golden routine counted; equal results and phases."""
    bulk_counter, golden_counter = OpCounter(), OpCounter()
    bulk = bulk_run(bulk_counter)
    golden = golden_run(golden_counter)
    _assert_same_result(bulk, golden)
    assert _phases(bulk_counter) == _phases(golden_counter)
    return bulk_counter


def _decode_both(code, word, window="natural"):
    """Decode ``word`` with the lanes engine and the golden loops."""
    decoder = ConstantTimeBCHDecoder(code)
    return _run_both(
        lambda counter: decoder.decode(word, counter, window),
        lambda counter: decoder._decode_scalar(word, counter, window),
    )


def _ise_golden_decode(decoder, word, counter):
    """The MUL CHIEN decode on the golden loops: the software syndromes
    and BM, then the per-probe loop around the unit."""
    code, software = decoder.code, decoder._software
    working = word.copy()
    syndromes = software._syndromes_scalar(working, counter)
    locator = software._inversion_free_bm(syndromes, counter)
    flips, _ = decoder._chien_scalar(working, locator, counter)
    degree = _degree(locator)
    return DecodeResult(
        codeword=working,
        message=working[code.parity_bits :].copy(),
        errors_found=flips,
        success=degree <= code.t and flips <= degree,
        counter=counter,
    )


def _ise_decode_both(code, word):
    decoder = IseBchDecoder(code)
    return _run_both(
        lambda counter: decoder.decode(word, counter),
        lambda counter: _ise_golden_decode(decoder, word, counter),
    )


# ---------------------------------------------------------------------------
# the constant-time BCH decoder
# ---------------------------------------------------------------------------


class TestConstantTimeDecoder:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_phases_equal_the_golden_loops(self, params, window):
        code = params.bch
        for n_errors in _error_counts(code):
            word = make_word(code, n_errors, seed=n_errors + 11)[2]
            counter = _decode_both(code, word, window)
            assert {"syndrome", "error_locator", "chien"} <= set(counter.phases)
            assert counter.phases["error_locator"]["gf_mul_ct"] > 0

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_a_stack_charges_its_words(self, params, window):
        code = params.bch
        words = np.stack(
            [make_word(code, e, seed=e)[2] for e in _error_counts(code)]
        )
        bulk_counter, golden_counter = OpCounter(), OpCounter()
        bulk = ConstantTimeBCHDecoder(code).decode_many(words, bulk_counter, window)
        golden = ConstantTimeBCHDecoder(code)
        for word, result in zip(words, bulk):
            _assert_same_result(
                result, golden._decode_scalar(word, golden_counter, window)
            )
        assert _phases(bulk_counter) == _phases(golden_counter)

    @given(
        data=st.data(),
        params=st.sampled_from(ALL_PARAMS),
        window=st.sampled_from(WINDOWS),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_words(self, data, params, window):
        code = params.bch
        n_errors = data.draw(st.integers(0, code.t + 1), label="errors")
        word = make_word(code, n_errors, seed=data.draw(st.integers(0, 10_000)))[2]
        _decode_both(code, word, window)


# ---------------------------------------------------------------------------
# the MUL CHIEN decoder
# ---------------------------------------------------------------------------


class TestIseDecoder:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_phases_equal_the_golden_loops(self, params):
        code = params.bch
        for n_errors in _error_counts(code):
            word = make_word(code, n_errors, seed=n_errors + 5)[2]
            counter = _ise_decode_both(code, word)
            assert counter.phases["chien"]["pq_busy"] > 0

    def test_the_unit_is_clocked_alike(self):
        code = LAC_128.bch
        word = make_word(code, code.t, seed=3)[2]
        bulk, golden = IseBchDecoder(code), IseBchDecoder(code)
        bulk.decode(word, OpCounter())
        _ise_golden_decode(golden, word, OpCounter())
        assert bulk.unit.cycle_count == golden.unit.cycle_count > 0

    @given(seed=st.integers(0, 10_000), n_errors=st.integers(0, 17))
    @settings(max_examples=6, deadline=None)
    def test_random_words(self, seed, n_errors):
        code = LAC_128.bch
        _ise_decode_both(code, make_word(code, n_errors, seed=seed)[2])


# ---------------------------------------------------------------------------
# the reference ternary multiplication
# ---------------------------------------------------------------------------


def _operands(ring, seed):
    rng = np.random.default_rng(seed)
    ternary = TernaryPoly(rng.integers(-1, 2, ring.n))
    return ternary, rng.integers(0, ring.q, ring.n)


class TestTernaryMul:
    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("negacyclic", [True, False], ids=["nega", "cyclic"])
    def test_product_and_phases_equal_the_golden_loop(self, n, negacyclic):
        ring = PolyRing(n, negacyclic=negacyclic)
        ternary, general = _operands(ring, seed=n + negacyclic)
        bulk_counter, golden_counter = OpCounter(), OpCounter()
        bulk = ternary_mul(ring, ternary, general, bulk_counter)
        golden = _ternary_mul_loop(ring, ternary, general, golden_counter)
        assert np.array_equal(bulk, golden)
        assert _phases(bulk_counter) == _phases(golden_counter)

    @given(
        n=st.sampled_from([1, 2, 8, 64]),
        negacyclic=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_operands(self, n, negacyclic, seed):
        ring = PolyRing(n, negacyclic=negacyclic)
        ternary, general = _operands(ring, seed)
        # operands outside [0, q) reduce alike too
        general = general - np.random.default_rng(seed).integers(0, 3 * ring.q, n)
        bulk_counter, golden_counter = OpCounter(), OpCounter()
        bulk = ternary_mul(ring, ternary, general, bulk_counter)
        golden = _ternary_mul_loop(ring, ternary, general, golden_counter)
        assert np.array_equal(bulk, golden)
        assert _phases(bulk_counter) == _phases(golden_counter)


# ---------------------------------------------------------------------------
# the samplers
# ---------------------------------------------------------------------------


def _sample_both(params, seed):
    """Sample with each engine; return both polys, phases and the next bytes."""
    runs = []
    for sample in (sample_ternary_fixed_weight, _sample_fixed_weight_loop):
        counter = OpCounter()
        prng = Sha256Prng(seed, counter=counter)
        poly = sample(prng, params, counter)
        # a caller reading on: the stream must resume at the same byte
        runs.append((poly, _phases(counter), prng.read(40)))
    return runs


class TestFixedWeightSampler:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_equal_to_the_golden_loop(self, params):
        bulk, golden = _sample_both(params, b"sampler" + params.name.encode())
        assert bulk == golden
        assert bulk[0].weight == params.h

    @pytest.mark.parametrize("h", [448, 510, 512])
    def test_many_rejections(self, h):
        # h close to n: most late draws hit an occupied slot
        params = dataclasses.replace(LAC_128, h=h)
        bulk, golden = _sample_both(params, bytes([h % 256]) * 32)
        assert bulk == golden
        draws = bulk[1]["sample_poly"]["loop"]
        assert draws > 2 * h  # rejections dominate
        assert bulk[1]["sample_poly"]["store"] == h

    @given(
        seed=st.binary(min_size=1, max_size=40),
        h=st.sampled_from([2, 64, 256, 500]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_streams(self, seed, h):
        bulk, golden = _sample_both(dataclasses.replace(LAC_128, h=h), seed)
        assert bulk == golden


class TestGenA:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("expander", ["sha256", "shake"])
    def test_equal_to_the_golden_loop(self, params, expander):
        seed = bytes(range(32))
        runs = []
        for expand in (gen_a, _gen_a_loop):
            counter = OpCounter()
            prng = (
                Sha256Prng(seed, counter=counter)
                if expander == "sha256"
                else ShakePrng(seed, counter=counter)
            )
            a = expand(seed, params, counter, prng=prng)
            runs.append((a, _phases(counter), prng.read(40)))
        (bulk, bulk_phases, bulk_next), (golden, golden_phases, golden_next) = runs
        assert np.array_equal(bulk, golden)
        assert bulk_phases == golden_phases
        assert bulk_next == golden_next

    @given(seed=st.binary(min_size=32, max_size=32))
    @settings(max_examples=10, deadline=None)
    def test_random_seeds(self, seed):
        runs = []
        for expand in (gen_a, _gen_a_loop):
            counter = OpCounter()
            a = expand(seed, LAC_128, counter)
            runs.append((a.tolist(), _phases(counter)))
        assert runs[0] == runs[1]
