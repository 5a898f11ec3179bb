"""The MUL GF Galois-field multiplier (Fig. 3 of the paper).

A shift-and-add GF(2^9) multiplier with interleaved reduction by the
primitive polynomial p(x) = 1 + x^4 + x^9.  The bits a_i of operand a
sit at the first inputs of nine AND gates; the Control Unit feeds the
bits of operand b sequentially (b_8 first) to the second inputs.  The
heart is the 9-bit shift register c whose feedback taps (c_8 into c_0
and c_4) perform the reduction.  After m = 9 clocks the register holds
the product — always exactly 9 clocks, i.e. the unit is constant-time
by construction, which is what makes it suitable for the protected
Chien search.
"""

from __future__ import annotations

from repro.gf.field import GF2m, GF512
from repro.hw.common import ClockedUnit, ComponentInventory


class MulGfUnit(ClockedUnit):
    """Cycle-accurate model of the GF(2^m) shift-and-add multiplier."""

    def __init__(self, field: GF2m = GF512) -> None:
        super().__init__()
        self.field = field
        self.m = field.m
        self.a = 0
        self.b = 0
        self.c = 0  # the result shift register
        self._bit_index = self.m - 1
        self._running = False

    # ------------------------------------------------------------------

    def load(self, a: int, b: int) -> None:
        """Latch operands and reset the result register (rst signal)."""
        self.field._check(a)
        self.field._check(b)
        self.a = a
        self.b = b
        self.c = 0
        self._bit_index = self.m - 1
        self._running = True  # en goes high after start

    def _tick(self) -> None:
        if not self._running:
            return
        # shift left with the primitive-polynomial feedback: the bit
        # leaving c_{m-1} re-enters at the reduction taps
        carry = (self.c >> (self.m - 1)) & 1
        self.c = (self.c << 1) & ((1 << self.m) - 1)
        if carry:
            self.c ^= self.field.primitive_poly & ((1 << self.m) - 1)
        # AND gates inject a when the current b bit (MSB first) is set
        if (self.b >> self._bit_index) & 1:
            self.c ^= self.a
        self._bit_index -= 1
        if self._bit_index < 0:
            self._running = False  # control unit drops en

    def run_to_completion(self) -> int:
        """Clock until done; returns the cycles spent (always m)."""
        spent = 0
        while self._running:
            self.tick()
            spent += 1
        return spent

    def multiply(self, a: int, b: int) -> int:
        """Full transaction: load, clock m cycles, read c."""
        self.load(a, b)
        self.run_to_completion()
        return self.c

    # ------------------------------------------------------------------

    @property
    def compute_cycles(self) -> int:
        return self.m

    def inventory(self) -> ComponentInventory:
        """One multiplier: c shift register + operand latches + gates."""
        m = self.m
        taps = bin(self.field.primitive_poly).count("1") - 1
        return ComponentInventory(
            flipflops=3 * m + 4,       # c, a latch, b latch, small FSM
            gates=m + m + taps,        # m AND, m XOR inject, tap XORs
            mux_bits=m,                # rst/en gating on the register
            adder_bits=0,
            comparator_bits=4,         # bit counter terminal detect
        )
