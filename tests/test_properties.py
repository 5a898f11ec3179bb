"""Property-based correctness sweep over the GF/BCH/ring kernels.

Randomized algebra checks with hypothesis, covering the three kernel
families the paper accelerates:

* GF(2^9) field axioms, and agreement between the table-based
  multiplier and the hardware-style shift-and-add schedule (Fig. 3);
* ring multiplication linearity and the negacyclic wrap-around law,
  pinned against the schoolbook golden model of Eq. (1);
* BCH encode -> inject up to t errors -> constant-time decode
  roundtrips for both LAC codes;
* the two-level splitting (Algorithms 1-2) against direct length-1024
  multiplication;
* the annotated ISE drivers (MUL TER, MUL CHIEN) against the
  vectorized kernels — the cosim backend's bit-identity seam;
* batched KEYGEN (:func:`repro.batch.kem.keygen_many`) against the
  scalar ``LacKem.keygen`` on random seeds.

The sweep is CI-shaped: ``max_examples`` is capped (override with the
``REPRO_PROPERTY_MAX_EXAMPLES`` env var), every strategy draws plain
integer seeds so failures shrink to a reproducible seed, and the CI
property-test matrix re-runs the file under several fixed
``--hypothesis-seed`` values.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kem import keygen_many
from repro.bch.code import LAC_BCH_128_256, LAC_BCH_192
from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.cosim import IseBchDecoder, IseMultiplier
from repro.gf.field import GF512
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS
from repro.ring.poly import PolyRing
from repro.ring.splitting import UNIT_LEN, split_mul_high, split_mul_low
from repro.ring.ternary import TernaryPoly
from tests.test_bch_decoder import make_word

#: Example budget per property (CI keeps this small; crank it up
#: locally with REPRO_PROPERTY_MAX_EXAMPLES=200 for a deeper sweep).
MAX_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_MAX_EXAMPLES", "20"))

SWEEP = settings(max_examples=MAX_EXAMPLES, deadline=None)
#: Reduced budget for properties whose single example is expensive
#: (length-1024 splitting, t=16 BCH decoding).
SLOW_SWEEP = settings(max_examples=max(4, MAX_EXAMPLES // 4), deadline=None)

elements = st.integers(min_value=0, max_value=511)
nonzero_elements = st.integers(min_value=1, max_value=511)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestGFFieldAxioms:
    """GF(2^9) is a field; both multipliers implement it."""

    @given(a=elements, b=elements)
    @SWEEP
    def test_mul_commutative(self, a, b):
        assert GF512.mul(a, b) == GF512.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    @SWEEP
    def test_mul_associative(self, a, b, c):
        assert GF512.mul(GF512.mul(a, b), c) == GF512.mul(a, GF512.mul(b, c))

    @given(a=elements, b=elements, c=elements)
    @SWEEP
    def test_mul_distributes_over_add(self, a, b, c):
        left = GF512.mul(a, GF512.add(b, c))
        right = GF512.add(GF512.mul(a, b), GF512.mul(a, c))
        assert left == right

    @given(a=elements)
    @SWEEP
    def test_identity_and_annihilator(self, a):
        assert GF512.mul(a, 1) == a
        assert GF512.mul(a, 0) == 0

    @given(a=nonzero_elements)
    @SWEEP
    def test_multiplicative_inverse(self, a):
        assert GF512.mul(a, GF512.inv(a)) == 1
        assert GF512.div(a, a) == 1

    @given(a=elements, b=elements)
    @SWEEP
    def test_table_and_shift_add_multipliers_agree(self, a, b):
        # the log/antilog fast path and the MUL GF hardware schedule
        # (Fig. 3) must be the same function
        assert GF512.mul(a, b) == GF512.mul_shift_add(a, b)

    @given(seed=seeds)
    @SWEEP
    def test_vectorized_mul_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 512, 64)
        b = rng.integers(0, 512, 64)
        got = GF512.mul_vec(a, b)
        assert [int(x) for x in got] == [
            GF512.mul(int(x), int(y)) for x, y in zip(a, b)
        ]


def _ring_operands(ring: PolyRing, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return ring.random(rng), ring.random(rng)


class TestRingMultiplication:
    """Z_q[x]/(x^n +/- 1) laws, pinned on the schoolbook golden model."""

    @given(seed=seeds, negacyclic=st.booleans())
    @SWEEP
    def test_fast_mul_matches_schoolbook(self, seed, negacyclic):
        ring = PolyRing(64, negacyclic=negacyclic)
        a, b = _ring_operands(ring, seed)
        assert np.array_equal(ring.mul(a, b), ring.mul_schoolbook(a, b))

    @given(seed=seeds)
    @SWEEP
    def test_mul_is_bilinear(self, seed):
        ring = PolyRing(64)
        rng = np.random.default_rng(seed)
        a, b, c = ring.random(rng), ring.random(rng), ring.random(rng)
        s = int(rng.integers(0, ring.q))
        left = ring.mul(ring.add(a, b), c)
        right = ring.add(ring.mul(a, c), ring.mul(b, c))
        assert np.array_equal(left, right)
        assert np.array_equal(
            ring.mul(ring.scalar_mul(a, s), c), ring.scalar_mul(ring.mul(a, c), s)
        )

    @given(seed=seeds, shift=st.integers(min_value=0, max_value=63))
    @SWEEP
    def test_negacyclic_wrap_law(self, seed, shift):
        # multiplying by x^k rotates the coefficients by k positions
        # and negates every coefficient that wrapped around x^n = -1
        ring = PolyRing(64)
        a, _ = _ring_operands(ring, seed)
        x_k = ring.zero()
        x_k[shift] = 1
        got = ring.mul(a, x_k)
        expected = np.concatenate([-a[64 - shift:], a[: 64 - shift]]) % ring.q
        assert np.array_equal(got, expected)

    @given(seed=seeds, shift=st.integers(min_value=0, max_value=63))
    @SWEEP
    def test_cyclic_wrap_law(self, seed, shift):
        # the positive-wrap variant rotates without the sign flip
        ring = PolyRing(64, negacyclic=False)
        a, _ = _ring_operands(ring, seed)
        x_k = ring.zero()
        x_k[shift] = 1
        assert np.array_equal(ring.mul(a, x_k), np.roll(a, shift))


class TestTwoLevelSplitting:
    """Algorithms 1-2 equal direct length-1024 multiplication."""

    @given(seed=seeds)
    @SLOW_SWEEP
    def test_split_low_is_the_plain_product(self, seed):
        rng = np.random.default_rng(seed)
        ternary = rng.integers(-1, 2, UNIT_LEN).astype(np.int8)
        general = rng.integers(0, 251, UNIT_LEN).astype(np.int64)
        got = split_mul_low(ternary, general)
        full = np.mod(np.convolve(ternary.astype(np.int64), general), 251)
        expected = np.zeros(2 * UNIT_LEN, dtype=np.int64)
        expected[: full.size] = full
        assert np.array_equal(got, expected)

    @given(seed=seeds)
    @SLOW_SWEEP
    def test_split_high_matches_direct_1024(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * UNIT_LEN
        ternary = rng.integers(-1, 2, n).astype(np.int8)
        general = rng.integers(0, 251, n).astype(np.int64)
        ring = PolyRing(n)
        got = split_mul_high(TernaryPoly(ternary), general)
        expected = ring.mul(np.mod(ternary.astype(np.int64), 251), general)
        assert np.array_equal(got, expected)


class TestBCHRoundtrip:
    """encode -> inject <= t errors -> constant-time decode recovers."""

    @given(seed=seeds, n_errors=st.integers(min_value=0, max_value=16))
    @SLOW_SWEEP
    def test_t16_code_corrects_up_to_capacity(self, seed, n_errors):
        code = LAC_BCH_128_256
        message, codeword, word = make_word(code, n_errors, seed=seed)
        result = ConstantTimeBCHDecoder(code).decode(word)
        assert result.success
        assert result.errors_found == n_errors
        assert np.array_equal(result.codeword, codeword)
        assert np.array_equal(result.message, message)

    @given(seed=seeds, n_errors=st.integers(min_value=0, max_value=8))
    @SWEEP
    def test_t8_code_corrects_up_to_capacity(self, seed, n_errors):
        code = LAC_BCH_192
        message, codeword, word = make_word(code, n_errors, seed=seed)
        result = ConstantTimeBCHDecoder(code).decode(word)
        assert result.success
        assert result.errors_found == n_errors
        assert np.array_equal(result.message, message)

    @given(seed=seeds)
    @SWEEP
    def test_error_free_words_decode_to_themselves(self, seed):
        code = LAC_BCH_192
        message, codeword, word = make_word(code, 0, seed=seed)
        result = ConstantTimeBCHDecoder(code).decode(word)
        assert result.success
        assert result.errors_found == 0
        assert np.array_equal(result.codeword, word)


def _ternary_operands(
    ring: PolyRing, seed: int
) -> tuple[TernaryPoly, np.ndarray]:
    rng = np.random.default_rng(seed)
    ternary = TernaryPoly(rng.integers(-1, 2, ring.n).astype(np.int8))
    return ternary, ring.random(rng)


class TestIseDriverDifferential:
    """The annotated ISE drivers are the same functions as the
    vectorized kernels — the cosim backend's bit-identity claim,
    checked at the kernel seam under random inputs."""

    @given(seed=seeds, negacyclic=st.booleans())
    @SLOW_SWEEP
    def test_mul_ter_unit_matches_ring_mul_512(self, seed, negacyclic):
        ring = PolyRing(UNIT_LEN, negacyclic=negacyclic)
        ternary, general = _ternary_operands(ring, seed)
        got = IseMultiplier()(ring, ternary, general)
        expected = ring.mul(
            np.mod(ternary.coeffs.astype(np.int64), ring.q), general
        )
        assert np.array_equal(got, expected)

    @given(seed=seeds)
    @SLOW_SWEEP
    def test_mul_ter_split_path_matches_ring_mul_1024(self, seed):
        # LAC-192/256's n = 1024: the driver takes Algorithms 1-2
        # through two length-512 unit transactions
        ring = PolyRing(2 * UNIT_LEN)
        ternary, general = _ternary_operands(ring, seed)
        got = IseMultiplier()(ring, ternary, general)
        expected = ring.mul(
            np.mod(ternary.coeffs.astype(np.int64), ring.q), general
        )
        assert np.array_equal(got, expected)

    @given(seed=seeds, n_errors=st.integers(min_value=0, max_value=16))
    @SLOW_SWEEP
    def test_mul_chien_decoder_matches_software_t16(self, seed, n_errors):
        self._chien_differential(LAC_BCH_128_256, seed, n_errors)

    @given(seed=seeds, n_errors=st.integers(min_value=0, max_value=8))
    @SWEEP
    def test_mul_chien_decoder_matches_software_t8(self, seed, n_errors):
        self._chien_differential(LAC_BCH_192, seed, n_errors)

    @staticmethod
    def _chien_differential(code, seed, n_errors):
        # the accelerated Chien search only sweeps the message window
        # (all the KEM ever reads), so correctable errors live there
        message, codeword, word = make_word(
            code, n_errors, seed=seed, error_region=(code.parity_bits, code.n)
        )
        ise = IseBchDecoder(code).decode(word)
        software = ConstantTimeBCHDecoder(code).decode(word)
        assert ise.success == software.success
        assert ise.errors_found == software.errors_found == n_errors
        assert np.array_equal(ise.message, software.message)
        assert np.array_equal(ise.message, message)


class TestBatchedKeygen:
    """Every served LAC key comes from the batch kernel; it must be the
    key the scalar reference derives from the same seed."""

    @given(
        seed_words=st.lists(seeds, min_size=1, max_size=4),
        index=st.integers(min_value=0, max_value=len(ALL_PARAMS) - 1),
    )
    @SLOW_SWEEP
    def test_keygen_many_matches_scalar_keygen(self, seed_words, index):
        params = ALL_PARAMS[index]
        kem = LacKem(params)
        key_seeds = [
            np.random.default_rng(word).bytes(params.seed_bytes + 32)
            for word in seed_words
        ]
        for pair, seed in zip(keygen_many(kem, key_seeds), key_seeds):
            scalar = kem.keygen(seed)
            assert pair.public_key.to_bytes() == scalar.public_key.to_bytes()
            assert pair.secret_key.to_bytes() == scalar.secret_key.to_bytes()
