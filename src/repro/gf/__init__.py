"""Finite-field arithmetic over GF(2^m).

This subpackage provides the Galois-field substrate used by the BCH
error-correcting code of LAC (Sec. IV-B of the paper) and by the
hardware models of the GF multiplier and the Chien-search engine.

Public API:

* :class:`repro.gf.field.GF2m` — a binary extension field with
  log/antilog tables, constant-time multiplication, and minimal
  polynomial computation.
* :data:`repro.gf.field.GF512` — the GF(2^9) instance used by LAC,
  built on the primitive polynomial p(x) = 1 + x^4 + x^9.
* :class:`repro.gf.poly2.Poly2` — polynomials over GF(2) (bitmask
  representation), used to construct BCH generator polynomials.
"""

from repro.gf.field import GF2m, GF512, LAC_PRIMITIVE_POLY
from repro.gf.poly2 import Poly2

__all__ = ["GF2m", "GF512", "LAC_PRIMITIVE_POLY", "Poly2"]
