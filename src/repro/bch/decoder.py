"""Round-2-submission style BCH decoder (input-dependent execution time).

This decoder mirrors the structure (and, deliberately, the timing
behaviour) of the BCH decoder shipped with the NIST round-2 LAC
submission, which Table I of the paper shows is *not* constant time
despite its compile-flag claim:

* syndromes are accumulated only over the *set* bits of the received
  word (weight-dependent work);
* Berlekamp--Massey exits almost immediately when all syndromes are
  zero and otherwise executes a number of field operations that grows
  with the current locator degree (error-count-dependent work);
* the Chien search runs over the full message window with a fixed
  t+1-slot coefficient array, but the table-based field multiplier
  shortcuts zero operands, leaving a small residual timing signal.

All executed operations are recorded in an :class:`~repro.metrics.OpCounter`
under the phases ``syndrome``, ``error_locator``, ``chien`` and
``fixup``, so downstream cycle models observe genuinely data-dependent
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.bch.code import BCHCode
from repro.bitutils import require_bits
from repro.metrics import OpCounter, ensure_counter


@dataclass
class DecodeResult:
    """Outcome of a BCH decode.

    Attributes
    ----------
    codeword:
        The corrected codeword (length ``code.n``); for failed decodes
        this is the best-effort corrected word.
    message:
        The systematic message bits extracted from ``codeword``.
    errors_found:
        Number of bit positions flipped by the corrector.
    success:
        True when the error-locator degree matches the number of roots
        found in the Chien window (the standard decode-success test).
        A ``False`` here means more than t errors (or a miscorrection).
    counter:
        Operation counts per phase, populated when a counter was passed.
    """

    codeword: np.ndarray
    message: np.ndarray
    errors_found: int
    success: bool
    counter: OpCounter = dataclass_field(default_factory=OpCounter)


class BCHDecoder:
    """Submission-style (non-constant-time) BCH decoder."""

    def __init__(self, code: BCHCode) -> None:
        self.code = code
        self.field = code.field

    # ------------------------------------------------------------------

    def decode(
        self,
        received: np.ndarray,
        counter: OpCounter | None = None,
        window: str = "natural",
    ) -> DecodeResult:
        """Correct up to t errors in ``received`` (length ``code.n`` bits).

        ``window`` selects the Chien probe range (see
        :meth:`BCHCode.chien_window`): generic software decoders probe
        the ``"natural"`` full-length window, the paper's optimized
        implementation only the ``"message"`` positions.
        """
        code = self.code
        counter = ensure_counter(counter)
        received = require_bits(received, code.n, "received")
        working = received.copy()

        syndromes = self._syndromes(working, counter)
        locator = self._berlekamp_massey(syndromes, counter)
        error_positions, roots_found = self._chien_search(locator, counter, window)

        with counter.phase("fixup"):
            for position in error_positions:
                working[position] ^= 1
                counter.count("load")
                counter.count("store")
                counter.count("alu")
            counter.count("call")

        locator_degree = _degree(locator)
        if window == "message":
            # message-window decode cannot see parity-position roots, so
            # the root count is only bounded by the locator degree; a
            # degree above t always indicates an uncorrectable word
            success = locator_degree <= code.t and len(error_positions) <= locator_degree
        else:
            # classic success test: the locator splits completely over
            # the probed range and every root flags a real position
            success = (
                roots_found == locator_degree
                and len(error_positions) == roots_found
            )
        message = working[code.parity_bits :].copy()
        return DecodeResult(
            codeword=working,
            message=message,
            errors_found=len(error_positions),
            success=success,
            counter=counter,
        )

    # ------------------------------------------------------------------
    # phase 1: syndromes (sparse accumulation over set bits)
    # ------------------------------------------------------------------

    def _syndromes(self, received: np.ndarray, counter: OpCounter) -> list[int]:
        code, field = self.code, self.field
        two_t = 2 * code.t
        syndromes = [0] * two_t
        with counter.phase("syndrome"):
            counter.count("call")
            counter.count("loop", code.n)
            counter.count("load", code.n)
            counter.count("branch", code.n)
            for i in range(code.n):
                if not received[i]:
                    continue
                # accumulate alpha^{i*j} for j = 1..2t via repeated
                # log-table stepping, as the sparse C implementation does
                counter.count("loop", two_t)
                counter.count("gf_add", two_t)
                counter.count("alu", two_t)  # exponent arithmetic
                counter.count("load", two_t)  # antilog table loads
                for j in range(1, two_t + 1):
                    syndromes[j - 1] ^= field.alpha_pow(i * j)
        return syndromes

    # ------------------------------------------------------------------
    # phase 2: Berlekamp--Massey with early exit and degree-dependent work
    # ------------------------------------------------------------------

    def _berlekamp_massey(self, syndromes: list[int], counter: OpCounter) -> list[int]:
        code, field = self.code, self.field
        two_t = 2 * code.t
        with counter.phase("error_locator"):
            counter.count("call")
            # the all-zero-syndrome early exit of the submission decoder
            counter.count("load", two_t)
            counter.count("branch", two_t)
            counter.count("loop", two_t)
            if all(s == 0 for s in syndromes):
                return [1]

            locator = [1]
            previous = [1]
            length = 0
            shift = 1
            previous_discrepancy = 1
            for iteration in range(two_t):
                counter.count("loop")
                discrepancy = syndromes[iteration]
                counter.count("load")
                for i in range(1, length + 1):
                    counter.count("loop")
                    counter.count("load", 2)
                    if i < len(locator) and locator[i] and syndromes[iteration - i]:
                        discrepancy ^= field.mul(
                            locator[i], syndromes[iteration - i]
                        )
                        counter.count("gf_mul_table")
                        counter.count("gf_add")
                    else:
                        counter.count("gf_mul_skip")
                counter.count("branch")
                if discrepancy == 0:
                    shift += 1
                    counter.count("alu")
                    continue
                scale = field.div(discrepancy, previous_discrepancy)
                counter.count("gf_mul_table")  # div = log-sub + antilog
                correction = [0] * shift + [field.mul(scale, c) for c in previous]
                counter.count("gf_mul_table", len(previous))
                counter.count("alu", len(previous) + shift)
                updated = _poly_add(locator, correction)
                counter.count("gf_add", len(updated))
                counter.count("load", len(updated))
                counter.count("store", len(updated))
                counter.count("branch")
                if 2 * length <= iteration:
                    previous = locator
                    previous_discrepancy = discrepancy
                    length = iteration + 1 - length
                    shift = 1
                    counter.count("store", len(previous))
                    counter.count("alu", 3)
                else:
                    shift += 1
                    counter.count("alu")
                locator = updated
            return locator

    # ------------------------------------------------------------------
    # phase 3: Chien search over the message window, fixed t+1 slots
    # ------------------------------------------------------------------

    def _chien_search(
        self,
        locator: list[int],
        counter: OpCounter,
        window: str,
    ) -> tuple[list[int], int]:
        code, field = self.code, self.field
        t = code.t
        start, stop = code.chien_window(window)

        # fixed-size coefficient slots, as in the submission implementation
        slots = [locator[i] if i < len(locator) else 0 for i in range(t + 1)]
        # terms[j] tracks lambda_j * alpha^{l*j}; initialized for l = start
        terms = [field.mul(slots[j], field.alpha_pow(start * j)) for j in range(1, t + 1)]
        steps = [field.alpha_pow(j) for j in range(1, t + 1)]

        error_positions: list[int] = []
        roots_found = 0
        # The submission's Chien inner loop multiplies through log/antilog
        # tables extended with a zero sentinel (log[0] mapped past the
        # group order), so zero coefficients cost the same as nonzero
        # ones: the phase is near-constant regardless of the error count
        # (Table I: 107,431 vs. 107,690), unlike Berlekamp--Massey.
        with counter.phase("chien"):
            counter.count("call")
            counter.count("gf_mul_table", t)
            for l in range(start, stop + 1):
                counter.count("loop")
                value = slots[0]
                for j in range(t):
                    counter.count("load")
                    value ^= terms[j]
                    counter.count("gf_add")
                counter.count("branch")
                if value == 0:
                    roots_found += 1
                    position = code.position_of_root(l)
                    if position < code.n:
                        error_positions.append(position)
                    counter.count("alu", 2)
                    counter.count("store")
                # advance every term to the next power of alpha
                # (sentinel-based table multiply: constant cost, zero or not)
                for j in range(t):
                    counter.count("load")
                    if terms[j]:
                        terms[j] = field.mul(terms[j], steps[j])
                    counter.count("gf_mul_table")
                    counter.count("store")
        return error_positions, roots_found


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    """Coefficient-wise XOR of two coefficient lists."""
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] ^= c
    for i, c in enumerate(b):
        out[i] ^= c
    while out and out[-1] == 0:
        out.pop()
    return out or [0]


def _degree(coeffs: list[int]) -> int:
    """Degree of a coefficient list (ignoring stored trailing zeros)."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return 0
