"""Cycle-accurate behavioral models of the paper's hardware accelerators.

Each model simulates the register-transfer behaviour of one PQ-ALU
unit (Sec. IV / Fig. 2-4 of the paper) cycle by cycle, is verified
bit-exactly against the software golden models, and reports both its
cycle schedule and a structural component inventory from which the
area estimator (:mod:`repro.hw.area`) reproduces Table III.

Units:

* :class:`repro.hw.mul_ter.MulTerUnit` — the length-512 ternary
  polynomial multiplier (Fig. 2): one serialized ternary coefficient
  per clock through an array of 512 Modular Arithmetic Units, with
  sign multiplexers selecting positive/negative wrapped convolution.
* :class:`repro.hw.mul_gf.MulGfUnit` — the GF(2^9) shift-and-add
  multiplier (Fig. 3): 9 clocks per product, reduction interleaved via
  the p(x) = 1 + x^4 + x^9 feedback taps.
* :class:`repro.hw.chien.ChienUnit` — the Chien-search engine
  (Fig. 4): four MUL GF instances in parallel with an input feedback
  loop, evaluating the error-locator polynomial one power of alpha per
  activation group.
* :class:`repro.hw.sha256_accel.Sha256Unit` — the SHA256 core
  (one compression per 65 clocks plus byte-wise I/O).
* :class:`repro.hw.barrett.BarrettUnit` — the single-cycle MOD q
  reduction (Barrett, two DSP multipliers).
"""
