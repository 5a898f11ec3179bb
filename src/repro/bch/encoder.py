"""Systematic BCH encoding.

The shortened systematic codeword is laid out as::

    position:   0 .. parity-1    parity .. n-1
    content:    parity bits      message bits (bit j at parity + j)

i.e. c(x) = m(x) * x^{n-k} + (m(x) * x^{n-k} mod g(x)), with the
suppressed (shortened) message positions implicitly zero.  This layout
matches the paper's Chien windows (Sec. IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.bch.code import BCHCode
from repro.bitutils import bits_to_mask, mask_to_bits, require_bits
from repro.gf.poly2 import Poly2
from repro.metrics import OpCounter, ensure_counter


class BCHEncoder:
    """Encoder for a (shortened) systematic BCH code."""

    def __init__(self, code: BCHCode) -> None:
        self.code = code

    def encode(self, message: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        """Encode ``message`` (``code.k`` bits) into a codeword (``code.n`` bits).

        The optional ``counter`` records the LFSR-division work performed,
        modelling the shift-register encoder a software implementation
        would run (one iteration per message bit).
        """
        code = self.code
        counter = ensure_counter(counter)
        message = require_bits(message, code.k, "message")

        message_poly = Poly2(bits_to_mask(message)) << code.parity_bits
        remainder = message_poly % code.generator

        with counter.phase("encode"):
            # An LFSR encoder clocks once per message bit; each clock is
            # a masked (branchless) XOR of the generator taps plus a
            # shift — constant work per bit, as the constant-time
            # implementation of [15] requires (during CCA decapsulation
            # the encoder input is secret-derived).
            counter.count("loop", code.k)
            counter.count("alu", code.k * 2)
            counter.count("gf_add", code.k)

        codeword = np.zeros(code.n, dtype=np.uint8)
        codeword[: code.parity_bits] = mask_to_bits(remainder.mask, code.parity_bits)
        codeword[code.parity_bits :] = message
        return codeword

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        """Read the systematic message bits back out of a codeword."""
        codeword = require_bits(codeword, self.code.n, "codeword")
        return codeword[self.code.parity_bits :].copy()

    def is_codeword(self, word: np.ndarray) -> bool:
        """Check membership: the word polynomial must be divisible by g(x)."""
        word = require_bits(word, self.code.n, "word")
        return (Poly2(bits_to_mask(word)) % self.code.generator).mask == 0
