"""The coefficient ring R_n = Z_q[x] / (x^n ± 1), q = 251.

Polynomials are plain 1-D numpy arrays of dtype ``int64`` with values
in [0, q).  The class methods keep results reduced.  The schoolbook
multiplication implements Eq. (1) of the paper directly and serves as
the golden model against which the ternary multiplier, the splitting
algorithms, and the MUL TER hardware model are all verified.
"""

from __future__ import annotations

import numpy as np

#: LAC's coefficient modulus (a single byte, prime).
LAC_Q = 251


#: Ring coefficients one pass of a batched product works on.  As the
#: paper's one length-512 MUL TER serves n = 1024 in several runs, a
#: whole batch goes through the FFT this many coefficients at a time
#: (32 rows at n = 512, 16 at n = 1024): the rows are independent, so
#: passes cost nothing, and every temporary stays cache-sized instead
#: of most of a megabyte each — in every pool thread — at n = 1024.
_PASS_COEFFS = 1 << 14


def _passes(rows: int, n: int) -> list[slice]:
    """The row slices a batched product of ``rows`` rows runs in."""
    step = max(1, _PASS_COEFFS // n)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _rows_of(operand: np.ndarray | None, rows: int, part: slice) -> np.ndarray | None:
    """One pass's share of an operand (or transform): its rows when it
    has one per product, itself when it broadcasts."""
    if operand is not None and operand.ndim == 2 and operand.shape[0] == rows:
        return operand[part]
    return operand


class PolyRing:
    """Z_q[x] / (x^n - wrap), where wrap is +1 (positive convolution,
    i.e. reduction by x^n - 1) or -1 (negative convolution, x^n + 1).

    LAC uses the negative wrapped convolution; the positive variant is
    needed because the MUL TER hardware supports both (Fig. 2) and the
    splitting algorithms rely on wrap-free products of padded inputs.
    """

    def __init__(self, n: int, q: int = LAC_Q, negacyclic: bool = True):
        if n < 1:
            raise ValueError("ring degree must be positive")
        if q < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.q = q
        self.negacyclic = negacyclic

    # ------------------------------------------------------------------
    # construction / validation
    # ------------------------------------------------------------------

    def zero(self) -> np.ndarray:
        """The zero element."""
        return np.zeros(self.n, dtype=np.int64)

    def element(self, coeffs) -> np.ndarray:
        """Coerce and reduce an arbitrary coefficient sequence."""
        array = np.asarray(coeffs, dtype=np.int64)
        if array.ndim != 1 or array.size != self.n:
            raise ValueError(f"expected {self.n} coefficients, got shape {array.shape}")
        return np.mod(array, self.q)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random ring element (test/benchmark helper)."""
        return rng.integers(0, self.q, self.n, dtype=np.int64)

    def is_element(self, a: np.ndarray) -> bool:
        """True when ``a`` is a reduced coefficient vector of this ring."""
        a = np.asarray(a)
        return a.ndim == 1 and a.size == self.n and bool(
            np.all((0 <= a) & (a < self.q))
        )

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise addition mod q."""
        return np.mod(a + b, self.q)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise subtraction mod q."""
        return np.mod(a - b, self.q)

    def neg(self, a: np.ndarray) -> np.ndarray:
        """Additive inverse mod q."""
        return np.mod(-a, self.q)

    def mul_schoolbook(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Direct evaluation of Eq. (1): the golden-model multiplication.

        c_i = sum_{j<=i} a_j b_{i-j}  -/+  sum_{j>i} a_j b_{n+i-j}  (mod q)

        with the sign of the wrap-around term set by the convolution
        variant.
        """
        n, q = self.n, self.q
        if a.size != n or b.size != n:
            raise ValueError("operands must be full-length ring elements")
        wrap_sign = -1 if self.negacyclic else 1
        out = np.zeros(n, dtype=np.int64)
        for i in range(n):
            low = int(np.dot(a[: i + 1], b[i::-1]))
            high = int(np.dot(a[i + 1 :], b[n - 1 : i : -1])) if i + 1 < n else 0
            out[i] = (low + wrap_sign * high) % q
        return out

    def mul_full(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The unreduced product (length 2n-1), before any wrap-around."""
        return np.mod(np.convolve(a, b), self.q)

    def reduce_full(self, product: np.ndarray) -> np.ndarray:
        """Reduce an unreduced product (length <= 2n-1) by x^n -/+ 1."""
        n, q = self.n, self.q
        out = np.zeros(n, dtype=np.int64)
        out[: min(n, product.size)] = product[:n]
        if product.size > n:
            tail = product[n:]
            sign = -1 if self.negacyclic else 1
            out[: tail.size] += sign * tail
        return np.mod(out, q)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fast reduced multiplication (convolve + wrap), vectorized."""
        return self.reduce_full(np.convolve(a, b))

    def forward_transform(self, operand: np.ndarray) -> np.ndarray:
        """The reusable forward half of :meth:`mul_many`: ``rfft`` at 2n.

        Long-lived operands (hosted public/secret key polynomials) can
        be transformed once and the result passed back through the
        ``a_transform=``/``b_transform=`` hooks, collapsing every later
        product against them to pointwise multiply + inverse transform
        (see :mod:`repro.ring.cache`).  The transform preserves the
        operand's dimensionality, so it broadcasts exactly like the
        operand itself would.
        """
        operand = np.asarray(operand, dtype=np.int64)
        if operand.shape[-1] != self.n:
            raise ValueError("operands must be full-length ring elements")
        return np.fft.rfft(operand, 2 * self.n, axis=-1)

    def mul_many(
        self,
        stacked: np.ndarray,
        b: np.ndarray,
        a_transform: np.ndarray | None = None,
        b_transform: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduced products of a whole stack of ring elements at once.

        ``stacked`` is a 2-D array whose rows are ring elements (values
        may be signed, e.g. ternary coefficients in {-1, 0, 1}; the
        result is always reduced into [0, q)).  ``b`` is either a single
        ring element applied to every row or a matching 2-D stack for
        row-wise products.  Either side may also have a single row that
        broadcasts against the other.

        The products run as one batched FFT of length 2n (negacyclic or
        cyclic wrap applied afterwards).  ``a_transform``/``b_transform``
        optionally supply a precomputed :meth:`forward_transform` of the
        corresponding operand (the per-key caching hook); the raw
        operands are still required so the exactness fallback below
        never depends on the cache.  Float rounding is verified against
        a 0.25 integrality margin — far above the error floor for
        q = 251 operands — and the method falls back to the exact
        per-row ``np.convolve`` path if the margin is ever violated, so
        results are always bit-identical to :meth:`mul`.
        """
        n = self.n
        stacked = np.atleast_2d(np.asarray(stacked, dtype=np.int64))
        b = np.asarray(b, dtype=np.int64)
        if stacked.shape[-1] != n or b.shape[-1] != n:
            raise ValueError("operands must be full-length ring elements")
        if b.ndim not in (1, 2):
            raise ValueError("b must be one ring element or a stack of them")
        products = max(stacked.shape[0], b.shape[0] if b.ndim == 2 else 1)
        passes = _passes(products, n)
        if len(passes) > 1:
            return np.concatenate(
                [
                    self.mul_many(
                        _rows_of(stacked, products, p),
                        _rows_of(b, products, p),
                        _rows_of(a_transform, products, p),
                        _rows_of(b_transform, products, p),
                    )
                    for p in passes
                ]
            )
        length = 2 * n
        fa = (
            np.fft.rfft(stacked, length, axis=-1)
            if a_transform is None
            else np.atleast_2d(a_transform)
        )
        fb = np.fft.rfft(b, length, axis=-1) if b_transform is None else b_transform
        reduced = self._wrap_product(fa * fb)
        if reduced is None:  # guard: exact fallback
            rows = np.broadcast_arrays(
                stacked, b if b.ndim == 2 else b[None, :]
            )
            return np.stack([self.mul(x, y) for x, y in zip(*rows)])
        return reduced

    def _wrap_product(self, product: np.ndarray) -> np.ndarray | None:
        """Reduced ring elements from a pointwise product of length-2n
        transforms (which it consumes), or ``None`` when float rounding
        strays past the 0.25 integrality margin.

        A whole batch at n = 1024 makes every temporary here most of a
        megabyte, and two pool threads run at once: each buffer is
        reused in place rather than left for a fresh one beside it.
        """
        n = self.n
        full = np.fft.irfft(product, 2 * n, axis=-1)
        del product
        rounded = np.rint(full)
        np.subtract(full, rounded, out=full)
        np.abs(full, out=full)
        if full.max() > 0.25:
            return None
        del full
        full_int = rounded.astype(np.int64)
        del rounded
        # linear convolution occupies 2n-1 slots; slot 2n-1 is zero, so
        # the wrap is a plain halves add/subtract
        low, high = full_int[..., :n], full_int[..., n:]
        wrapped = low - high if self.negacyclic else low + high
        return np.mod(wrapped, self.q, out=wrapped)

    def mul_many_multi(
        self,
        stacked: np.ndarray,
        operands: list[np.ndarray],
        operand_transforms: list[np.ndarray | None] | None = None,
    ) -> list[np.ndarray]:
        """Products of one stack against several operands, sharing the FFT.

        Equivalent to ``[self.mul_many(stacked, b) for b in operands]``
        but the (large) forward FFT of ``stacked`` is computed once and
        reused for every operand — the dominant cost when the stack is a
        whole batch and the operands are single ring elements (e.g. the
        KEM's ``s * a`` and ``s * b`` against the same secret stack).

        ``operand_transforms`` optionally carries a precomputed
        :meth:`forward_transform` per operand (``None`` entries are
        computed here) — the hook the per-key transform cache uses to
        skip re-transforming hosted key material every batch.
        """
        n = self.n
        # any integer dtype (the batch kernel's secret stack is int8):
        # the FFT widens it, and so does the exact fallback
        stacked = np.atleast_2d(np.asarray(stacked))
        if stacked.shape[-1] != n:
            raise ValueError("operands must be full-length ring elements")
        if operand_transforms is not None and len(operand_transforms) != len(operands):
            raise ValueError("one transform (or None) per operand")
        # likewise the operands: with a transform supplied the raw one
        # only feeds the exact fallback, which up-casts it
        operands = [np.asarray(b) for b in operands]
        rows = stacked.shape[0]
        passes = _passes(rows, n)
        if len(passes) > 1:
            parts = [
                self.mul_many_multi(
                    stacked[p],
                    [_rows_of(b, rows, p) for b in operands],
                    [_rows_of(t, rows, p) for t in operand_transforms or ()] or None,
                )
                for p in passes
            ]
            return [np.concatenate(products) for products in zip(*parts)]
        length = 2 * n
        fa = np.fft.rfft(stacked, length, axis=-1)
        out = []
        for i, b in enumerate(operands):
            if b.shape[-1] != n or b.ndim not in (1, 2):
                raise ValueError("operands must be full-length ring elements")
            fb = (
                operand_transforms[i]
                if operand_transforms is not None
                and operand_transforms[i] is not None
                else np.fft.rfft(b, length, axis=-1)
            )
            reduced = self._wrap_product(fa * fb)
            if reduced is None:  # guard: exact fallback
                reduced = self.mul_many(stacked, b)
            out.append(reduced)
        return out

    def scalar_mul(self, a: np.ndarray, s: int) -> np.ndarray:
        """Multiply every coefficient by an integer scalar mod q."""
        return np.mod(a * s, self.q)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        wrap = "+1" if self.negacyclic else "-1"
        return f"PolyRing(Z_{self.q}[x]/(x^{self.n}{wrap}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyRing)
            and (self.n, self.q, self.negacyclic)
            == (other.n, other.q, other.negacyclic)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.negacyclic))
