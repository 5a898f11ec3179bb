"""Ternary polynomials and the addition-only multiplication of LAC.

LAC's secret and error polynomials have coefficients in {-1, 0, +1}
(Sec. IV-A), so multiplying a ternary polynomial with a general one
needs no integer multiplications at all — each partial product is an
addition, a subtraction, or a no-op.  This is the insight the MUL TER
hardware exploits, and :func:`ternary_mul` is its software equivalent
(and the reference implementation's inner loop, which dominates the
cycle counts of Table II's "Multiplication" column).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.metrics import OpCounter, ensure_counter
from repro.ring.poly import LAC_Q, PolyRing


class TernaryPoly:
    """A polynomial with coefficients in {-1, 0, +1}.

    Stored as an ``int8`` array.  Provides conversions to the Z_q
    representation (-1 maps to q-1) and weight inspection.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: npt.ArrayLike) -> None:
        array = np.asarray(coeffs, dtype=np.int8)
        if array.ndim != 1:
            raise ValueError("ternary polynomial must be one-dimensional")
        if np.any((array < -1) | (array > 1)):
            raise ValueError("coefficients must lie in {-1, 0, 1}")
        self.coeffs = array

    @classmethod
    def from_zq(cls, coeffs: np.ndarray, q: int = LAC_Q) -> "TernaryPoly":
        """Interpret Z_q values {0, 1, q-1} as {0, +1, -1}."""
        array = np.asarray(coeffs, dtype=np.int64)
        out = np.zeros(array.size, dtype=np.int8)
        out[array == 1] = 1
        out[array == q - 1] = -1
        bad = ~np.isin(array, (0, 1, q - 1))
        if np.any(bad):
            raise ValueError("values are not a ternary polynomial mod q")
        return cls(out)

    @property
    def n(self) -> int:
        return self.coeffs.size

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients (LAC fixes this by parameter h)."""
        return int(np.count_nonzero(self.coeffs))

    def to_zq(self, q: int = LAC_Q) -> np.ndarray:
        """The Z_q representation (-1 maps to q-1)."""
        return ternary_to_zq(self.coeffs, q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TernaryPoly) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __repr__(self) -> str:
        return f"TernaryPoly(n={self.n}, weight={self.weight})"


def ternary_to_zq(coeffs: np.ndarray, q: int = LAC_Q) -> np.ndarray:
    """Map {-1, 0, 1} coefficients into Z_q (as int64)."""
    return np.mod(np.asarray(coeffs, dtype=np.int64), q)


def zq_to_centered(coeffs: np.ndarray, q: int = LAC_Q) -> np.ndarray:
    """Map Z_q values to the centered representation (-q/2, q/2]."""
    array = np.asarray(coeffs, dtype=np.int64)
    return np.where(array > q // 2, array - q, array)


def ternary_mul(
    ring: PolyRing,
    ternary: TernaryPoly,
    general: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Multiply a ternary polynomial by a general one in the ring.

    This prices the reference software schedule: for every coefficient
    ``t_j`` of the ternary operand, the general operand is rotated and
    conditionally added/subtracted into the accumulator.  The operation
    counts (one pass of n loads/branches per ternary coefficient, each
    touching all n accumulator slots) model the O(n^2) inner loop of
    the LAC reference code.  They are fixed by n alone, so the phase is
    charged once and the product computed as one wrapped convolution;
    :func:`_ternary_mul_loop` is the golden per-coefficient loop.
    """
    counter = ensure_counter(counter)
    n = ring.n
    if ternary.n != n or general.size != n:
        raise ValueError("operands must match the ring size")
    with counter.phase("ternary_mul"):
        counter.count("call")
        counter.count("loop", n + n * n)
        counter.count("load", n + 2 * n * n)
        counter.count("branch", n)
        counter.count("alu", 2 * n * n)
        counter.count("store", n * n)
        return ring.mul(ternary.coeffs.astype(np.int64), general.astype(np.int64))


def _ternary_mul_loop(
    ring: PolyRing, ternary: TernaryPoly, general: np.ndarray, counter: OpCounter
) -> np.ndarray:
    """The golden model of :func:`ternary_mul`: the reference loop, counted."""
    n, q = ring.n, ring.q
    wrap_sign = -1 if ring.negacyclic else 1

    acc = np.zeros(n, dtype=np.int64)
    with counter.phase("ternary_mul"):
        counter.count("call")
        for j in range(n):
            counter.count("loop")
            counter.count("load")
            counter.count("branch")
            t = int(ternary.coeffs[j])
            # each iteration touches all n accumulator slots: the
            # reference code's inner loop runs regardless of t so the
            # multiplication is weight-independent (constant-time).
            # Per slot: load acc + load b, add/sub with a branchless
            # conditional correction, store back.
            counter.count("loop", n)
            counter.count("load", 2 * n)
            counter.count("alu", 2 * n)
            counter.count("store", n)
            if t == 0:
                continue
            # x^j * general, reduced by x^n -/+ 1
            rotated = np.empty(n, dtype=np.int64)
            rotated[j:] = general[: n - j]
            rotated[:j] = wrap_sign * general[n - j :]
            acc += t * rotated
        acc = np.mod(acc, q)
    return acc


def ternary_mul_truncated(
    ring: PolyRing,
    ternary: TernaryPoly,
    general: np.ndarray,
    slots: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Multiplication computing only the first ``slots`` output coefficients.

    The LAC reference encryption never needs the full product b*s' —
    only the ``v_slots`` coefficients that carry the encoded message —
    so its inner loop runs slots*n instead of n*n iterations.  This is
    visible in Table II: the encapsulation totals are consistent with a
    truncated second multiplication, and this function charges exactly
    that reduced amount of work.
    """
    counter = ensure_counter(counter)
    n = ring.n
    if not 0 < slots <= n:
        raise ValueError(f"slots must be in 1..{n}")
    with counter.phase("ternary_mul_truncated"):
        counter.count("call")
        counter.count("loop", n)
        counter.count("load", n)
        counter.count("branch", n)
        counter.count("loop", n * slots)
        counter.count("load", 2 * n * slots)
        counter.count("alu", 2 * n * slots)
        counter.count("store", n * slots)
    return ternary_mul(ring, ternary, general)[:slots]
