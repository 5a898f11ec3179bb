"""Software polynomial splitting (Algorithms 1 and 2 of the paper).

The MUL TER hardware unit has a fixed length of 512 coefficients.  To
reuse it for the n = 1024 parameter sets (LAC-192/LAC-256), the paper
splits each multiplication in two levels:

* **Algorithm 2** (``split_mul_low``) multiplies two length-512
  polynomials by splitting them into length-256 halves, zero-padding
  each half into the length-512 unit, and running the unit in
  *positive* convolution mode — the padded product has degree <= 510,
  so no wrap-around occurs and the unit returns the plain product.
  The four partial products are recombined into the (unreduced)
  length-1023 product.
* **Algorithm 1** (``split_mul_high``) splits the length-1024 operands
  into length-512 halves, feeds them through four instances of
  Algorithm 2, and recombines with the reduction by x^1024 + 1 folded
  in (coefficients at degree >= 1024 wrap around negatively).

Both functions are parameterized over the ``mul512`` primitive so the
same code path drives the software golden model, the cycle-annotated
reference, and the MUL TER hardware model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.metrics import OpCounter, ensure_counter
from repro.ring.poly import LAC_Q, PolyRing
from repro.ring.ternary import TernaryPoly

#: Signature of the length-512 multiplier primitive: takes a ternary
#: operand (int8, {-1,0,1}, length 512), a general operand (int64,
#: Z_q, length 512) and the convolution mode; returns 512 coefficients.
Mul512 = Callable[[np.ndarray, np.ndarray, bool], np.ndarray]

#: The unit length the paper's accelerator fixes.
UNIT_LEN = 512


def software_mul512(ternary: np.ndarray, general: np.ndarray, negacyclic: bool) -> np.ndarray:
    """Golden-model length-512 multiply (numpy convolution + wrap)."""
    ring = PolyRing(UNIT_LEN, LAC_Q, negacyclic=negacyclic)
    return ring.reduce_full(np.convolve(ternary.astype(np.int64), general))


def _pad_to_unit(half: np.ndarray, dtype: npt.DTypeLike) -> np.ndarray:
    out = np.zeros(UNIT_LEN, dtype=dtype)
    out[: half.size] = half
    return out


def split_mul_low(
    ternary: np.ndarray,
    general: np.ndarray,
    mul512: Mul512 = software_mul512,
    counter: OpCounter | None = None,
    q: int = LAC_Q,
) -> np.ndarray:
    """Algorithm 2: length-512 operands -> unreduced length-1024 product.

    ``ternary`` has 512 coefficients in {-1, 0, 1}; ``general`` has 512
    coefficients in Z_q.  Each length-256 half is zero-padded into the
    length-512 unit and multiplied in positive-convolution mode.
    """
    counter = ensure_counter(counter)
    if ternary.size != UNIT_LEN or general.size != UNIT_LEN:
        raise ValueError("split_mul_low expects length-512 operands")
    half = UNIT_LEN // 2
    t_lo, t_hi = ternary[:half], ternary[half:]
    g_lo, g_hi = general[:half], general[half:]

    def unit(t_half: np.ndarray, g_half: np.ndarray) -> np.ndarray:
        return mul512(
            _pad_to_unit(t_half, ternary.dtype),
            _pad_to_unit(g_half, np.int64),
            False,  # positive convolution: pad leaves the product wrap-free
        )

    c_ll = unit(t_lo, g_lo)
    c_hh = unit(t_hi, g_hi)
    c_lh = unit(t_lo, g_hi)
    c_hl = unit(t_hi, g_lo)

    out = np.zeros(2 * UNIT_LEN, dtype=np.int64)
    with counter.phase("split_recombine_low"):
        # Algorithm 2, lines 3-7: three length-512 accumulation loops
        counter.count("loop", UNIT_LEN)
        counter.count("load", 5 * UNIT_LEN)
        counter.count("alu", 3 * UNIT_LEN)
        counter.count("modq", 2 * UNIT_LEN)
        counter.count("store", 3 * UNIT_LEN)
        out[:UNIT_LEN] = c_ll
        out[half : half + UNIT_LEN] = np.mod(
            out[half : half + UNIT_LEN] + c_lh + c_hl, q
        )
        out[UNIT_LEN:] = np.mod(out[UNIT_LEN:] + c_hh, q)
    return out


def split_mul_high(
    ternary: TernaryPoly,
    general: np.ndarray,
    mul512: Mul512 = software_mul512,
    counter: OpCounter | None = None,
    q: int = LAC_Q,
) -> np.ndarray:
    """Algorithm 1: multiply in Z_q[x]/(x^1024 + 1) via a length-512 unit."""
    counter = ensure_counter(counter)
    n = 2 * UNIT_LEN
    if ternary.n != n or general.size != n:
        raise ValueError("split_mul_high expects length-1024 operands")
    t = ternary.coeffs
    t_lo, t_hi = t[:UNIT_LEN], t[UNIT_LEN:]
    g_lo, g_hi = general[:UNIT_LEN], general[UNIT_LEN:]

    c_ll = split_mul_low(t_lo, g_lo, mul512, counter, q)
    c_hh = split_mul_low(t_hi, g_hi, mul512, counter, q)
    c_lh = split_mul_low(t_lo, g_hi, mul512, counter, q)
    c_hl = split_mul_low(t_hi, g_lo, mul512, counter, q)

    out = np.zeros(n, dtype=np.int64)
    with counter.phase("split_recombine_high"):
        # Algorithm 1, lines 3-12
        counter.count("loop", 2 * n)
        counter.count("load", 6 * n)
        counter.count("alu", 4 * n)
        counter.count("modq", 2 * n)
        counter.count("store", 2 * n)
        # lines 3-6: c_i = c^ll_i - c^hh_i (x^1024 wraps negatively)
        out[:] = np.mod(c_ll[:n] - c_hh[:n], q)
        # lines 7-9: add the x^512 cross terms that stay in range
        out[UNIT_LEN:] = np.mod(out[UNIT_LEN:] + c_lh[:UNIT_LEN] + c_hl[:UNIT_LEN], q)
        # lines 10-12: cross terms at degree >= 1024 wrap negatively
        out[:UNIT_LEN] = np.mod(out[:UNIT_LEN] - c_lh[UNIT_LEN:] - c_hl[UNIT_LEN:], q)
    return out


def split_mul_general(
    ternary: np.ndarray,
    general: np.ndarray,
    unit_len: int,
    mul_unit: Mul512,
    counter: OpCounter | None = None,
    q: int = LAC_Q,
) -> np.ndarray:
    """Generalized splitting: multiply in Z_q[x]/(x^m + 1) on a
    length-``unit_len`` unit, for any power-of-two ratio m/unit_len.

    The paper's Algorithms 1/2 are the (m = 1024, L = 512) instance;
    this generalization (used by the MUL TER length ablation) splits
    both operands into pieces of length L/2 — the longest pieces whose
    wrap-free products fit the unit — computes the (2m/L)^2 piece
    products in positive-convolution mode, recombines them into the
    plain length-2m product, and folds by x^m + 1.

    ``mul_unit(ternary_padded, general_padded, negacyclic)`` is the
    unit primitive at length ``unit_len``.
    """
    counter = ensure_counter(counter)
    m = ternary.size
    if general.size != m:
        raise ValueError("operands must have equal length")
    if m == unit_len:
        return np.mod(mul_unit(ternary, general, True), q)
    if m < unit_len or m % unit_len:
        raise ValueError(
            f"operand length {m} must be a multiple of the unit length {unit_len}"
        )

    piece = unit_len // 2
    pieces = m // piece  # = 2m/L per operand

    def padded(vector: np.ndarray, index: int) -> np.ndarray:
        out = np.zeros(unit_len, dtype=vector.dtype)
        out[:piece] = vector[index * piece : (index + 1) * piece]
        return out

    # accumulate the plain product of the two length-m polynomials
    full = np.zeros(2 * m, dtype=np.int64)
    with counter.phase("split_general"):
        for i in range(pieces):
            t_piece = padded(ternary, i)
            for j in range(pieces):
                g_piece = padded(general, j)
                product = mul_unit(t_piece, g_piece, False)  # wrap-free
                base = (i + j) * piece
                full[base : base + unit_len] += product
                counter.count("loop", unit_len)
                counter.count("load", 2 * unit_len)
                counter.count("alu", unit_len)
                counter.count("modq", unit_len)
                counter.count("store", unit_len)
        full %= q
        # fold by x^m + 1
        out = np.mod(full[:m] - full[m:], q)
        counter.count("loop", m)
        counter.count("load", 2 * m)
        counter.count("alu", m)
        counter.count("modq", m)
        counter.count("store", m)
    return out
