"""Polynomial ring arithmetic for LAC.

All LAC arithmetic happens in R_n = Z_q[x] / (x^n + 1) with q = 251
(Sec. IV-A of the paper).  This subpackage provides:

* :class:`repro.ring.poly.PolyRing` — the ring, with golden-model
  schoolbook multiplication (Eq. 1), vectorized arithmetic, and both
  wrapped-convolution variants;
* :mod:`repro.ring.ternary` — ternary polynomials (coefficients in
  {-1, 0, 1}) and the addition/subtraction-only multiplication that
  the MUL TER hardware exploits;
* :mod:`repro.ring.splitting` — the two-level software polynomial
  splitting of Algorithms 1 and 2, which lets a length-512 multiplier
  serve the n = 1024 parameter sets;
* :mod:`repro.ring.cache` — the per-key forward-transform LRU that
  lets hosted-key traffic skip the forward FFT of long-lived operands
  (:class:`~repro.ring.cache.KeyTransformCache`).
"""

from repro.ring.cache import DEFAULT_CACHE_ENTRIES, KeyTransformCache, fingerprint
from repro.ring.poly import LAC_Q, PolyRing
from repro.ring.ternary import (
    TernaryPoly,
    ternary_mul,
    ternary_mul_truncated,
    ternary_to_zq,
    zq_to_centered,
)
from repro.ring.splitting import (
    UNIT_LEN,
    software_mul512,
    split_mul_general,
    split_mul_high,
    split_mul_low,
)

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "KeyTransformCache",
    "LAC_Q",
    "PolyRing",
    "fingerprint",
    "TernaryPoly",
    "ternary_mul",
    "ternary_mul_truncated",
    "ternary_to_zq",
    "zq_to_centered",
    "split_mul_general",
    "split_mul_high",
    "split_mul_low",
    "software_mul512",
    "UNIT_LEN",
]
