"""Table I: BCH(511,367,16) decode cycle counts, per phase.

Reproduces the paper's demonstration that the NIST round-2 submission
decoder is *not* constant time: its error-locator phase (and, less
visibly, syndrome and Chien phases) execute different numbers of
operations for 0 and 16 injected errors, while the Walters/Roy-style
constant-time decoder's counts are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bch.code import BCHCode, LAC_BCH_128_256
from repro.bch.encoder import BCHEncoder
from repro.cosim.costs import price_phases
from repro.cosim.protocol import PROFILE_TABLE
from repro.metrics import OpCounter


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    scheme: str
    fails: int
    syndrome: int
    error_locator: int
    chien: int
    decode: int


#: The row label of each profile's decoder.
DECODER_NAMES = {
    "ref": "LAC Subm.",
    "const_bch": "Walters et al.",
    "ise": "MUL CHIEN",
}

#: The paper's measured values, for side-by-side comparison.
PAPER_TABLE1 = (
    Table1Row("LAC Subm.", 0, 61_994, 158, 107_431, 171_522),
    Table1Row("LAC Subm.", 16, 59_616, 10_172, 107_690, 179_798),
    Table1Row("Walters et al.", 0, 89_335, 33_810, 380_546, 514_169),
    Table1Row("Walters et al.", 16, 89_335, 33_867, 380_748, 514_428),
)


def _received_word(
    errors: int, seed: int = 2024, code: BCHCode = LAC_BCH_128_256
) -> np.ndarray:
    """A codeword of ``code`` with ``errors`` injected bit flips."""
    rng = np.random.default_rng(seed)
    message = rng.integers(0, 2, code.k).astype(np.uint8)
    codeword = BCHEncoder(code).encode(message)
    if errors:
        positions = rng.choice(code.n, size=errors, replace=False)
        codeword[positions] ^= 1
    return codeword


def measure_decode(
    profile: str,
    errors: int,
    seed: int = 2024,
    code: BCHCode = LAC_BCH_128_256,
) -> Table1Row:
    """Decode one word with ``profile``'s decoder and price the
    per-phase operation counts with its cost table."""
    entry = PROFILE_TABLE[profile]
    counter = OpCounter()
    result = entry.decoder(code).decode(_received_word(errors, seed, code), counter)
    if not result.success:
        raise AssertionError(f"decode failed with {errors} errors")
    phases = price_phases(counter, entry.costs)
    syndrome = phases.get("syndrome", 0)
    error_locator = phases.get("error_locator", 0)
    chien = phases.get("chien", 0)
    total = sum(phases.values())
    return Table1Row(
        DECODER_NAMES[profile], errors, syndrome, error_locator, chien, total
    )


def generate_table1(
    seed: int = 2024, code: BCHCode = LAC_BCH_128_256
) -> list[Table1Row]:
    """All four rows of Table I (same codeword/error pattern per pair).

    ``code`` defaults to the BCH(511,367,16) of the paper's Table I;
    passing :data:`repro.bch.code.LAC_BCH_192` produces the analogous
    table for LAC-192's t = 8 code (an extension experiment — the
    timing leak and the constant-time property hold identically).
    """
    return [
        measure_decode("ref", 0, seed=seed, code=code),
        measure_decode("ref", code.t, seed=seed, code=code),
        measure_decode("const_bch", 0, seed=seed, code=code),
        measure_decode("const_bch", code.t, seed=seed, code=code),
    ]
