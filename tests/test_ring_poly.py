"""Tests for the coefficient ring R_n = Z_q[x]/(x^n +/- 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ring.poly import LAC_Q, PolyRing


def ring_elements(n, q=LAC_Q):
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=n, max_size=n
    ).map(lambda xs: np.array(xs, dtype=np.int64))


class TestBasics:
    def test_q_is_251(self):
        assert LAC_Q == 251

    def test_element_reduces(self):
        ring = PolyRing(4)
        assert list(ring.element([252, -1, 0, 500])) == [1, 250, 0, 249]

    def test_element_wrong_size(self):
        with pytest.raises(ValueError):
            PolyRing(4).element([1, 2, 3])

    def test_is_element(self):
        ring = PolyRing(4)
        assert ring.is_element(np.array([0, 1, 2, 250]))
        assert not ring.is_element(np.array([0, 1, 2, 251]))
        assert not ring.is_element(np.array([0, 1, 2]))

    def test_zero(self):
        assert not PolyRing(8).zero().any()

    def test_random_in_range(self):
        ring = PolyRing(64)
        sample = ring.random(np.random.default_rng(0))
        assert ring.is_element(sample)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PolyRing(0)
        with pytest.raises(ValueError):
            PolyRing(4, q=1)

    def test_equality_hash(self):
        assert PolyRing(8) == PolyRing(8)
        assert PolyRing(8) != PolyRing(8, negacyclic=False)
        assert hash(PolyRing(8)) == hash(PolyRing(8))


class TestAddSub:
    @given(a=ring_elements(8), b=ring_elements(8))
    def test_add_sub_roundtrip(self, a, b):
        ring = PolyRing(8)
        assert np.array_equal(ring.sub(ring.add(a, b), b), a)

    @given(a=ring_elements(8))
    def test_neg(self, a):
        ring = PolyRing(8)
        assert not ring.add(a, ring.neg(a)).any()

    @given(a=ring_elements(8), b=ring_elements(8))
    def test_add_commutes(self, a, b):
        ring = PolyRing(8)
        assert np.array_equal(ring.add(a, b), ring.add(b, a))


class TestMultiplication:
    @given(a=ring_elements(8), b=ring_elements(8))
    @settings(max_examples=30)
    def test_fast_matches_schoolbook_negacyclic(self, a, b):
        ring = PolyRing(8)
        assert np.array_equal(ring.mul(a, b), ring.mul_schoolbook(a, b))

    @given(a=ring_elements(8), b=ring_elements(8))
    @settings(max_examples=30)
    def test_fast_matches_schoolbook_cyclic(self, a, b):
        ring = PolyRing(8, negacyclic=False)
        assert np.array_equal(ring.mul(a, b), ring.mul_schoolbook(a, b))

    def test_x_times_x_n_minus_1_wraps_negatively(self):
        # x * x^(n-1) = x^n = -1 in the negacyclic ring
        ring = PolyRing(4)
        x = ring.element([0, 1, 0, 0])
        xn1 = ring.element([0, 0, 0, 1])
        assert list(ring.mul(x, xn1)) == [250, 0, 0, 0]

    def test_x_times_x_n_minus_1_wraps_positively(self):
        ring = PolyRing(4, negacyclic=False)
        x = ring.element([0, 1, 0, 0])
        xn1 = ring.element([0, 0, 0, 1])
        assert list(ring.mul(x, xn1)) == [1, 0, 0, 0]

    @given(a=ring_elements(8), b=ring_elements(8), c=ring_elements(8))
    @settings(max_examples=20)
    def test_mul_distributes_over_add(self, a, b, c):
        ring = PolyRing(8)
        left = ring.mul(a, ring.add(b, c))
        right = ring.add(ring.mul(a, b), ring.mul(a, c))
        assert np.array_equal(left, right)

    @given(a=ring_elements(8), b=ring_elements(8))
    @settings(max_examples=20)
    def test_mul_commutes(self, a, b):
        ring = PolyRing(8)
        assert np.array_equal(ring.mul(a, b), ring.mul(b, a))

    @given(a=ring_elements(8))
    def test_one_is_identity(self, a):
        ring = PolyRing(8)
        one = ring.element([1] + [0] * 7)
        assert np.array_equal(ring.mul(a, one), a)

    def test_mul_full_no_reduction(self):
        ring = PolyRing(4)
        a = ring.element([1, 1, 0, 0])
        b = ring.element([1, 0, 1, 0])
        full = ring.mul_full(a, b)
        assert full.size == 7
        assert np.array_equal(ring.reduce_full(full), ring.mul(a, b))

    @given(a=ring_elements(8))
    def test_scalar_mul(self, a):
        ring = PolyRing(8)
        assert np.array_equal(ring.scalar_mul(a, 3), ring.element(a * 3))

    def test_reduce_full_short_product(self):
        ring = PolyRing(8)
        short = np.array([1, 2, 3], dtype=np.int64)
        reduced = ring.reduce_full(short)
        assert list(reduced[:3]) == [1, 2, 3]
        assert not reduced[3:].any()

    def test_lac_sizes(self):
        # the actual LAC rings multiply correctly at full size
        for n in (512, 1024):
            ring = PolyRing(n)
            rng = np.random.default_rng(n)
            a, b = ring.random(rng), ring.random(rng)
            c = ring.mul(a, b)
            assert ring.is_element(c)


class TestBatchedMultiplication:
    @pytest.mark.parametrize("negacyclic", [True, False])
    def test_mul_many_matches_mul(self, negacyclic):
        ring = PolyRing(64, negacyclic=negacyclic)
        rng = np.random.default_rng(7)
        stacked = np.stack([ring.random(rng) for _ in range(5)])
        b = ring.random(rng)
        out = ring.mul_many(stacked, b)
        for row, expected in zip(out, (ring.mul(a, b) for a in stacked)):
            assert np.array_equal(row, expected)

    def test_mul_many_rowwise_operand(self):
        ring = PolyRing(32)
        rng = np.random.default_rng(8)
        stacked = np.stack([ring.random(rng) for _ in range(4)])
        bs = np.stack([ring.random(rng) for _ in range(4)])
        out = ring.mul_many(stacked, bs)
        for row, a, b in zip(out, stacked, bs):
            assert np.array_equal(row, ring.mul(a, b))

    def test_mul_many_signed_ternary_rows(self):
        # the KEM passes signed {-1,0,1} secrets straight through
        ring = PolyRing(512)
        rng = np.random.default_rng(9)
        ternary = rng.integers(-1, 2, (3, 512), dtype=np.int64)
        b = ring.random(rng)
        out = ring.mul_many(ternary, b)
        for row, t in zip(out, ternary):
            assert np.array_equal(row, ring.mul(np.mod(t, ring.q), b))

    def test_mul_many_broadcasts_single_row(self):
        ring = PolyRing(32)
        rng = np.random.default_rng(10)
        one_row = ring.random(rng)[None, :]
        bs = np.stack([ring.random(rng) for _ in range(3)])
        out = ring.mul_many(one_row, bs)
        for row, b in zip(out, bs):
            assert np.array_equal(row, ring.mul(one_row[0], b))

    def test_mul_many_multi_shares_fft(self):
        ring = PolyRing(128)
        rng = np.random.default_rng(11)
        stacked = np.stack([ring.random(rng) for _ in range(6)])
        operands = [ring.random(rng), ring.random(rng)]
        outs = ring.mul_many_multi(stacked, operands)
        for out, b in zip(outs, operands):
            assert np.array_equal(out, ring.mul_many(stacked, b))

    def test_mul_many_rejects_bad_width(self):
        ring = PolyRing(16)
        with pytest.raises(ValueError):
            ring.mul_many(np.zeros((2, 15), dtype=np.int64), np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError):
            ring.mul_many_multi(np.zeros((2, 16), dtype=np.int64), [np.zeros(15, dtype=np.int64)])

    def test_lac_size_batch(self):
        for n in (512, 1024):
            ring = PolyRing(n)
            rng = np.random.default_rng(n + 1)
            stacked = np.stack([ring.random(rng) for _ in range(3)])
            b = ring.random(rng)
            out = ring.mul_many(stacked, b)
            for row, a in zip(out, stacked):
                assert np.array_equal(row, ring.mul(a, b))


class TestPasses:
    """Batched products run a fixed number of coefficients per pass;
    every operand shape must come out of several passes — the last one
    short — exactly as out of one, transforms supplied or not."""

    @pytest.fixture()
    def ring_and_rows(self, monkeypatch):
        import repro.ring.poly as poly

        ring = PolyRing(32)
        monkeypatch.setattr(poly, "_PASS_COEFFS", 3 * ring.n)  # 3 rows a pass
        rng = np.random.default_rng(7)
        rows = 8  # passes of 3, 3 and 2
        stacked = rng.integers(-1, 2, (rows, ring.n)).astype(np.int8)
        return ring, rng, stacked

    @staticmethod
    def _expect(ring, stacked, b):
        left, right = np.broadcast_arrays(
            np.atleast_2d(stacked), np.atleast_2d(b)
        )
        return np.stack(
            [ring.mul(np.mod(x.astype(np.int64), ring.q), y) for x, y in zip(left, right)]
        )

    def test_mul_many_every_broadcast_shape(self, ring_and_rows):
        ring, rng, stacked = ring_and_rows
        one = ring.random(rng)
        per_row = np.stack([ring.random(rng) for _ in range(len(stacked))])
        for a, b in (
            (stacked, one),
            (stacked, one[None, :]),
            (stacked, per_row),
            (stacked[:1], per_row),
        ):
            want = self._expect(ring, a, b)
            assert np.array_equal(ring.mul_many(a, b), want)
            assert np.array_equal(
                ring.mul_many(
                    a,
                    b,
                    a_transform=ring.forward_transform(a),
                    b_transform=ring.forward_transform(b),
                ),
                want,
            )

    def test_mul_many_multi_mixes_shared_and_per_row_operands(self, ring_and_rows):
        ring, rng, stacked = ring_and_rows
        shared = ring.random(rng).astype(np.uint8)  # narrow, as the cache keeps it
        per_row = np.stack([ring.random(rng) for _ in range(len(stacked))])
        operands = [shared, per_row]
        want = [self._expect(ring, stacked, b.astype(np.int64)) for b in operands]
        transforms = [ring.forward_transform(b) for b in operands]
        for given in (None, transforms, [transforms[0], None]):
            got = ring.mul_many_multi(stacked, operands, operand_transforms=given)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_a_pass_that_trips_the_guard_falls_back_alone(self, ring_and_rows, monkeypatch):
        ring, rng, stacked = ring_and_rows
        b = ring.random(rng)
        real, calls = np.fft.ifft, []

        def second_pass_broken(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs) + (0.4 if len(calls) == 2 else 0.0)

        # the negacyclic inverse transform is a half-length complex ifft
        monkeypatch.setattr(np.fft, "ifft", second_pass_broken)
        assert np.array_equal(ring.mul_many(stacked, b), self._expect(ring, stacked, b))
        assert len(calls) == 3


class TestRoundingGuardFallback:
    """Force the 0.25 integrality guard and prove the fallback is exact.

    The float path can't actually miss at q = 251 sizes, so the guard
    is tripped artificially: the inverse transform (``np.fft.ifft`` for
    a negacyclic ring, ``np.fft.irfft`` for a cyclic one) is wrapped to
    perturb its output past the margin.  The fallback re-derives the product from
    the *raw* operands via ``np.convolve`` (which the patch does not
    touch), so results must stay bit-identical — including when a
    precomputed cached transform was supplied, which is the invariant
    the per-key transform cache leans on.
    """

    @staticmethod
    def _break(monkeypatch, name):
        real = getattr(np.fft, name)
        calls = []

        def perturbed(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs) + 0.4  # past the 0.25 margin

        monkeypatch.setattr(np.fft, name, perturbed)
        return calls

    @pytest.fixture()
    def broken_inverse(self, monkeypatch):
        return self._break(monkeypatch, "ifft")

    def _ring_and_inputs(self, n=32, rows=3):
        ring = PolyRing(n)
        rng = np.random.default_rng(42)
        stacked = np.stack([ring.random(rng) for _ in range(rows)])
        b = ring.random(rng)
        return ring, stacked, b

    def test_mul_many_falls_back_exactly(self, broken_inverse):
        ring, stacked, b = self._ring_and_inputs()
        out = ring.mul_many(stacked, b)
        assert broken_inverse  # the guard path actually ran
        for row, a in zip(out, stacked):
            assert np.array_equal(row, ring.mul(a, b))

    def test_mul_many_fallback_ignores_cached_transforms(self, broken_inverse):
        # transforms computed before the patch: the guard still trips on
        # the (perturbed) inverse, and the fallback must answer from the
        # raw operands — never from cached transform-domain data
        ring, stacked, b = self._ring_and_inputs()
        fa = ring.forward_transform(stacked)
        fb = ring.forward_transform(b)
        out = ring.mul_many(stacked, b, a_transform=fa, b_transform=fb)
        assert broken_inverse
        for row, a in zip(out, stacked):
            assert np.array_equal(row, ring.mul(a, b))

    def test_mul_many_fallback_rowwise_and_broadcast(self, broken_inverse):
        ring, stacked, _ = self._ring_and_inputs(rows=4)
        rng = np.random.default_rng(43)
        bs = np.stack([ring.random(rng) for _ in range(4)])
        out = ring.mul_many(stacked, bs)
        for row, a, b in zip(out, stacked, bs):
            assert np.array_equal(row, ring.mul(a, b))
        one_row = ring.random(rng)[None, :]
        out = ring.mul_many(one_row, bs)
        for row, b in zip(out, bs):
            assert np.array_equal(row, ring.mul(one_row[0], b))

    def test_mul_many_multi_falls_back_exactly(self, broken_inverse):
        ring, stacked, b = self._ring_and_inputs()
        rng = np.random.default_rng(44)
        operands = [b, ring.random(rng)]
        transforms = [ring.forward_transform(op) for op in operands]
        for ts in (None, transforms):
            outs = ring.mul_many_multi(stacked, operands, operand_transforms=ts)
            assert broken_inverse
            for out, op in zip(outs, operands):
                for row, a in zip(out, stacked):
                    assert np.array_equal(row, ring.mul(a, op))

    def test_signed_rows_fall_back_exactly(self, broken_inverse):
        # the KEM's ternary secrets ride the same guard
        ring = PolyRing(64)
        rng = np.random.default_rng(45)
        ternary = rng.integers(-1, 2, (3, 64), dtype=np.int64)
        b = ring.random(rng)
        out = ring.mul_many(ternary, b)
        assert broken_inverse
        for row, t in zip(out, ternary):
            assert np.array_equal(row, ring.mul(np.mod(t, ring.q), b))

    @pytest.mark.parametrize(
        ("n", "negacyclic", "inverse"),
        [(32, False, "irfft"), (31, True, "ifft"), (31, False, "irfft")],
    )
    def test_every_ring_shape_falls_back_exactly(
        self, monkeypatch, n, negacyclic, inverse
    ):
        # cyclic rings invert with irfft, odd negacyclic ones with an
        # unfolded ifft: the guard covers each
        calls = self._break(monkeypatch, inverse)
        ring = PolyRing(n, negacyclic=negacyclic)
        rng = np.random.default_rng(46)
        stacked = np.stack([ring.random(rng) for _ in range(3)])
        b = ring.random(rng)
        for transforms in ({}, {"b_transform": ring.forward_transform(b)}):
            out = ring.mul_many(stacked, b, **transforms)
            assert calls
            for row, a in zip(out, stacked):
                assert np.array_equal(row, ring.mul(a, b))


class TestRingTransform:
    """The half-length negacyclic transform and its rounding margin."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 31, 64, 100, 257])
    @pytest.mark.parametrize("negacyclic", [True, False])
    def test_every_ring_size_matches_schoolbook(self, n, negacyclic):
        # even n folds to n/2 points, odd n twists all n, cyclic is rfft
        ring = PolyRing(n, negacyclic=negacyclic)
        rng = np.random.default_rng(n)
        stacked = rng.integers(-1, 2, (3, n)).astype(np.int8)
        b = ring.random(rng)
        out = ring.mul_many(stacked, b)
        for row, a in zip(out, stacked):
            assert np.array_equal(
                row, ring.mul_schoolbook(np.mod(a.astype(np.int64), ring.q), b)
            )
        (multi,) = ring.mul_many_multi(stacked, [b])
        assert np.array_equal(multi, out)

    @pytest.mark.parametrize(
        ("n", "negacyclic", "bins"),
        [(1024, True, 512), (1024, False, 513), (9, True, 9)],
    )
    def test_transform_length(self, n, negacyclic, bins):
        ring = PolyRing(n, negacyclic=negacyclic)
        transform = ring.forward_transform(np.ones((2, n), dtype=np.uint8))
        assert transform.shape == (2, bins)
        assert transform.dtype == np.complex128

    @pytest.mark.parametrize("n", [512, 1024])
    def test_worst_case_rounding_margin(self, n, monkeypatch):
        """All-250 operands against all-+1, all-(-1) and alternating
        ternary rows put every product coefficient at its largest
        magnitude: the float error stays far below the 0.25 guard."""
        import repro.ring.poly as poly

        ring = PolyRing(n)
        errors = []
        real_rint = np.rint

        def recording_rint(full, *args, **kwargs):
            rounded = real_rint(full, *args, **kwargs)
            errors.append(float(np.abs(full - rounded).max()))
            return rounded

        monkeypatch.setattr(poly.np, "rint", recording_rint)
        general = np.full(n, 250, dtype=np.int64)
        ternary = np.stack(
            [
                np.ones(n, dtype=np.int8),
                -np.ones(n, dtype=np.int8),
                np.where(np.arange(n) % 2, 1, -1).astype(np.int8),
            ]
        )
        out = ring.mul_many(ternary, general)
        assert errors and max(errors) < 1e-6
        for row, t in zip(out, ternary):
            want = ring.mul(np.mod(t.astype(np.int64), ring.q), general)
            assert np.array_equal(row, want)
