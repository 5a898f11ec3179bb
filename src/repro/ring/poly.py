"""The coefficient ring R_n = Z_q[x] / (x^n ± 1), q = 251.

Polynomials are plain 1-D numpy arrays of dtype ``int64`` with values
in [0, q).  The class methods keep results reduced.  The schoolbook
multiplication implements Eq. (1) of the paper directly and serves as
the golden model against which the ternary multiplier, the splitting
algorithms, and the MUL TER hardware model are all verified.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.typing as npt

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


@lru_cache(maxsize=None)
def _twist(n: int, length: int) -> np.ndarray:
    """psi^j for j < length, psi = e^(i pi/n): the negacyclic twist."""
    twist = np.exp(1j * np.pi * np.arange(length) / n)
    twist.setflags(write=False)
    return twist


@lru_cache(maxsize=None)
def _untwist(n: int, length: int) -> np.ndarray:
    """psi^-j, undoing :func:`_twist`."""
    untwist = np.conj(_twist(n, length))
    untwist.setflags(write=False)
    return untwist


class PolyRing:
    """Z_q[x] / (x^n - wrap), where wrap is +1 (positive convolution,
    i.e. reduction by x^n - 1) or -1 (negative convolution, x^n + 1).

    LAC uses the negative wrapped convolution; the positive variant is
    needed because the MUL TER hardware supports both (Fig. 2) and the
    splitting algorithms rely on wrap-free products of padded inputs.
    """

    def __init__(self, n: int, q: int = LAC_Q, negacyclic: bool = True) -> None:
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

    def element(self, coeffs: npt.ArrayLike) -> np.ndarray:
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
        """The reusable forward half of :meth:`mul_many`: the ring's own
        transform of ``operand`` (see :meth:`_forward`).

        Long-lived operands (hosted public/secret key polynomials) can
        be transformed once and the result passed back through the
        ``a_transform=``/``b_transform=`` hooks, collapsing every later
        product against them to pointwise multiply + inverse transform
        (see :mod:`repro.ring.cache`).  The transform preserves the
        operand's dimensionality, so it broadcasts exactly like the
        operand itself would.
        """
        operand = np.asarray(operand)
        if operand.shape[-1] != self.n:
            raise ValueError("operands must be full-length ring elements")
        return self._forward(operand)

    def _forward(self, operand: np.ndarray) -> np.ndarray:
        """The length-n transform under which the ring product is
        pointwise — no zero padding, no wrap step afterwards.

        Cyclic: ``rfft`` at length n (n/2 + 1 bins).  Negacyclic, even
        n: x^n + 1 = (x^(n/2) - i)(x^(n/2) + i), and a real element is
        determined by its residue modulo the first factor — coefficient
        j folded with coefficient j + n/2 into ``a_j + i a_(j+n/2)``.
        Substituting x = psi y (psi = e^(i pi/n), so psi^(n/2) = i)
        turns that residue ring into a cyclic one of length n/2: twist
        by psi^j, then one complex FFT of n/2 points.  Odd n cannot
        fold; it twists all n coefficients instead.
        """
        n = self.n
        if not self.negacyclic:
            return np.fft.rfft(operand, n, axis=-1)
        if n % 2:
            return np.fft.fft(operand * _twist(n, n), axis=-1)
        half = n // 2
        folded = np.empty(operand.shape[:-1] + (half,), dtype=np.complex128)
        folded.real = operand[..., :half]
        folded.imag = operand[..., half:]
        folded *= _twist(n, half)
        return np.fft.fft(folded, axis=-1)

    def _inverse(self, product: np.ndarray, out: np.ndarray) -> bool:
        """Write the reduced ring elements of a pointwise product of
        transforms (which it consumes) into ``out``; ``False`` when float
        rounding strays past the 0.25 integrality margin.

        The negacyclic inverse is ``ifft`` and the untwist; the real and
        imaginary parts are then the low and high halves of the product.
        A whole batch at n = 1024 makes every temporary here a sizeable
        buffer, and two pool threads run at once: buffers are reused in
        place rather than left for a fresh one beside them.
        """
        n, q = self.n, self.q
        if not self.negacyclic:
            full = np.fft.irfft(product, n, axis=-1)
        else:
            folded = np.fft.ifft(product, axis=-1)
            del product
            folded *= _untwist(n, n if n % 2 else n // 2)
            full = (
                folded.real
                if n % 2
                else np.concatenate((folded.real, folded.imag), axis=-1)
            )
            del folded
        rounded = np.rint(full)
        np.subtract(full, rounded, out=full)
        np.abs(full, out=full)
        if full.max() > 0.25:
            return False
        # reduce mod q in float: the products are integers far below
        # 2^53, so the quotient's floor is exact — and several times
        # cheaper than int64 division
        np.divide(rounded, q, out=full)
        np.floor(full, out=full)
        full *= -q
        rounded += full
        out[...] = rounded
        return True

    def mul_many(
        self,
        stacked: np.ndarray,
        b: np.ndarray,
        a_transform: np.ndarray | None = None,
        b_transform: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduced products of a whole stack of ring elements at once.

        ``stacked`` is a 2-D array whose rows are ring elements (values
        may be signed, e.g. ternary coefficients in {-1, 0, 1}, and of
        any integer dtype; the result is always reduced into [0, q) as
        ``int64``).  ``b`` is either a single ring element applied to
        every row or a matching 2-D stack for row-wise products.  Either
        side may also have a single row that broadcasts against the
        other.

        The products run as one batched ring transform
        (:meth:`_forward`, pointwise product, :meth:`_inverse`).
        ``a_transform``/``b_transform`` optionally supply a precomputed
        :meth:`forward_transform` of the corresponding operand (the
        per-key caching hook); the raw operands are still required so
        the exactness fallback below never depends on the cache.  Float
        rounding is verified against a 0.25 integrality margin — far
        above the error floor for q = 251 operands — and a pass falls
        back to the exact per-row ``np.convolve`` path if the margin is
        ever violated, so results are always bit-identical to
        :meth:`mul`.
        """
        n = self.n
        stacked = np.atleast_2d(np.asarray(stacked))
        b = np.asarray(b)
        if stacked.shape[-1] != n or b.shape[-1] != n:
            raise ValueError("operands must be full-length ring elements")
        if b.ndim not in (1, 2):
            raise ValueError("b must be one ring element or a stack of them")
        products = max(stacked.shape[0], b.shape[0] if b.ndim == 2 else 1)
        out = np.empty((products, n), dtype=np.int64)
        for part in _passes(products, n):
            x = _rows_of(stacked, products, part)
            y = _rows_of(b, products, part)
            fa = (
                self._forward(x)
                if a_transform is None
                else np.atleast_2d(_rows_of(a_transform, products, part))
            )
            fb = (
                self._forward(y)
                if b_transform is None
                else _rows_of(b_transform, products, part)
            )
            if not self._inverse(fa * fb, out[part]):  # guard: exact fallback
                rows = np.broadcast_arrays(x, y if y.ndim == 2 else y[None, :])
                out[part] = [
                    self.mul(left.astype(np.int64), right.astype(np.int64))
                    for left, right in zip(*rows)
                ]
        return out

    def mul_many_multi(
        self,
        stacked: np.ndarray,
        operands: list[np.ndarray],
        operand_transforms: list[np.ndarray | None] | None = None,
    ) -> list[np.ndarray]:
        """Products of one stack against several operands, sharing the
        forward transform.

        Equivalent to ``[self.mul_many(stacked, b) for b in operands]``
        but the forward transform of ``stacked`` is computed once and
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
        # the transform widens it, and so does the exact fallback
        stacked = np.atleast_2d(np.asarray(stacked))
        if stacked.shape[-1] != n:
            raise ValueError("operands must be full-length ring elements")
        if operand_transforms is None:
            operand_transforms = [None] * len(operands)
        elif len(operand_transforms) != len(operands):
            raise ValueError("one transform (or None) per operand")
        operands = [np.asarray(b) for b in operands]
        if any(b.shape[-1] != n or b.ndim not in (1, 2) for b in operands):
            raise ValueError("operands must be full-length ring elements")
        rows = stacked.shape[0]
        outs = [np.empty((rows, n), dtype=np.int64) for _ in operands]
        for part in _passes(rows, n):
            x = stacked[part]
            fa = self._forward(x)
            for b, fb, out in zip(operands, operand_transforms, outs):
                y = _rows_of(b, rows, part)
                fb = self._forward(y) if fb is None else _rows_of(fb, rows, part)
                if not self._inverse(fa * fb, out[part]):  # guard: exact fallback
                    out[part] = self.mul_many(x, y)
        return outs

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
