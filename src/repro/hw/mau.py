"""The Modular Arithmetic Unit (MAU) of the ternary multiplier.

Each MAU (Fig. 2) is a combinational block with three operation modes
selected by the serialized ternary coefficient a_i:

* a_i = +1: out = (acc + b) mod q
* a_i = -1: out = (acc - b) mod q
* a_i =  0: out = acc (forward)

q = 251 fits in 8 bits, so the MAU is an 8-bit adder/subtractor with a
conditional correction step (add/subtract q on overflow/underflow) —
no DSP resources needed, which is why Table III shows the ternary
multiplier consuming only LUTs and registers.
"""

from __future__ import annotations

from repro.hw.common import ComponentInventory
from repro.ring.poly import LAC_Q


class ModularArithmeticUnit:
    """One 8-bit add/sub/forward-mod-q lane."""

    def __init__(self, q: int = LAC_Q, width: int = 8) -> None:
        if q > (1 << width):
            raise ValueError("modulus does not fit the data path width")
        self.q = q
        self.width = width

    def compute(self, acc: int, operand: int, mode: int) -> int:
        """Apply one MAU operation.

        ``mode`` is the ternary control: +1 add, -1 subtract, 0 forward.
        Inputs must already be reduced; the output is reduced with a
        single conditional correction (the hardware's second adder).
        """
        if not 0 <= acc < self.q or not 0 <= operand < self.q:
            raise ValueError("MAU inputs must be reduced mod q")
        if mode == 1:
            result = acc + operand
            if result >= self.q:  # conditional correction subtract
                result -= self.q
        elif mode == -1:
            result = acc - operand
            if result < 0:  # conditional correction add
                result += self.q
        elif mode == 0:
            result = acc
        else:
            raise ValueError(f"MAU mode must be in {{-1,0,1}}, got {mode}")
        return result

    def inventory(self) -> ComponentInventory:
        """Structural cost of one MAU lane.

        The three-mode unit keeps separate adder and subtractor paths
        (the paper's "adders/subtractors"), each with its own
        conditional correction stage, plus the mode-select and
        corrected/uncorrected output muxes.
        """
        w = self.width
        return ComponentInventory(
            flipflops=0,  # the result register is counted by the array
            adder_bits=4 * w,      # add path, sub path, two corrections
            mux_bits=4 * w,        # mode select, two correction selects, output
            comparator_bits=2 * w,  # overflow + underflow detect
            gates=8,               # mode decode
        )
