"""The MOD q constant-time Barrett reduction unit.

The paper integrates a single-cycle modulo-q=251 reducer into the
PQ-ALU (Fig. 5), exposed through the pure R-type instruction
``pq.modq rd, rs1``.  Software reductions on RV32IM need a divider
(``remu``, many cycles) or a branchy subtract loop; the hardware unit
computes

    quotient  = (x * M) >> S        with M = floor(2^S / q)
    remainder = x - quotient * q    (one conditional correction)

in one clock using two DSP multipliers — exactly the two DSP slices
Table III attributes to the "Modulo (Barrett)" row.
"""

from __future__ import annotations

from repro.hw.common import ClockedUnit, ComponentInventory
from repro.ring.poly import LAC_Q

#: Barrett shift chosen so the approximation is exact for 32-bit inputs.
BARRETT_SHIFT = 40


class BarrettUnit(ClockedUnit):
    """Single-cycle Barrett reducer for q = 251."""

    def __init__(self, q: int = LAC_Q, shift: int = BARRETT_SHIFT) -> None:
        super().__init__()
        self.q = q
        self.shift = shift
        self.multiplier = (1 << shift) // q

    def reduce(self, value: int) -> int:
        """value mod q, for any unsigned 32-bit input, in one clock."""
        if not 0 <= value < (1 << 32):
            raise ValueError("the data path is 32 bits wide")
        quotient = (value * self.multiplier) >> self.shift
        remainder = value - quotient * self.q
        if remainder >= self.q:  # single correction stage
            remainder -= self.q
        self.tick()
        return remainder

    def _tick(self) -> None:
        pass  # purely combinational; tick only counts the issue clock

    def inventory(self) -> ComponentInventory:
        """Two DSP multipliers + correction subtract (Table III: 2 DSPs)."""
        return ComponentInventory(
            flipflops=0,
            adder_bits=9 + 9,       # x - q*quot (low bits) + correction
            mux_bits=8,             # corrected/uncorrected select
            comparator_bits=8,
            dsp=2,                  # x*M (wide) and quot*q
            gates=0,
            notes=["single-cycle Barrett mod 251"],
        )
