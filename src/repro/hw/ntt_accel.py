"""The NTT accelerator model (the [8] comparison point).

The NewHope co-design of [8] accelerates the Number Theoretic
Transform with a loosely-coupled unit: one butterfly data path fed
from a twiddle BRAM, with operands shipped over the system bus (the
paper contrasts this with its own tightly-coupled PQ-ALU).  Table III
lists it at 886 LUTs, 618 registers, 1 BRAM and 26 DSP slices — lots
of DSPs (the 14-bit modular multiplier pipeline) where LAC's ternary
multiplier needs none.

Schedule model: (n/2) log2 n butterflies at initiation interval 2 (the
shared modular-multiply pipeline), plus bus transfers of all n
coefficients in and out at ``BUS_CYCLES_PER_WORD`` each — landing near
the 24,609 cycles per transform that [8] reports for n = 1024.
"""

from __future__ import annotations

import numpy as np

from repro.hw.common import ClockedUnit, ComponentInventory
from repro.ring.ntt import NEWHOPE_Q, NttContext, get_context

#: Initiation interval of the butterfly pipeline (shared mod-mul path).
BUTTERFLY_II = 2
#: Bus cycles per 32-bit word on the loosely-coupled interconnect.
BUS_CYCLES_PER_WORD = 5
#: Fixed per-transform control overhead (configuration, drain).
CONTROL_OVERHEAD = 64


class NttAccelUnit(ClockedUnit):
    """Cycle-accurate model of the loosely-coupled NTT accelerator."""

    def __init__(self, n: int = 1024, q: int = NEWHOPE_Q) -> None:
        super().__init__()
        self.context: NttContext = get_context(n, q)
        self.n = n
        self.q = q

    def _tick(self) -> None:
        pass  # cycle accounting only

    # ------------------------------------------------------------------

    @property
    def butterfly_cycles(self) -> int:
        return BUTTERFLY_II * self.context.butterflies_per_transform

    @property
    def transfer_cycles(self) -> int:
        """Operands in + results out over the bus."""
        return 2 * self.n * BUS_CYCLES_PER_WORD

    @property
    def transform_cycles(self) -> int:
        """Full loosely-coupled transform: transfers + compute + control.

        For n = 1024 this is 2*5120 + 2*1024*5 + 64 = 20,544, against
        the 24,609 cycles [8] reports (their figure includes driver
        software we do not model).
        """
        return self.butterfly_cycles + self.transfer_cycles + CONTROL_OVERHEAD

    # ------------------------------------------------------------------

    def forward(self, poly: np.ndarray) -> np.ndarray:
        """One accelerated forward transform (charges the full schedule)."""
        self.tick(self.transform_cycles)
        return self.context.forward(poly)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """One accelerated inverse transform (full schedule charged)."""
        self.tick(self.transform_cycles)
        return self.context.inverse(values)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A full multiplication: 2 forward + 1 inverse + pointwise.

        The pointwise products run on the same DSP pipeline (n cycles
        at II=1 once loaded) — [8]'s "> 73,827 cycles" lower bound is
        its three transforms alone.
        """
        a_hat = self.forward(a)
        b_hat = self.forward(b)
        self.tick(self.n + 2 * self.n * BUS_CYCLES_PER_WORD)
        return self.inverse(self.context.pointwise(a_hat, b_hat))

    # ------------------------------------------------------------------

    def inventory(self) -> ComponentInventory:
        """One butterfly + mod-mul pipeline + twiddle BRAM (Table III)."""
        w = 14  # coefficient width for q = 12289
        return ComponentInventory(
            # butterfly operand regs, a ~12-stage mod-mul pipeline, the
            # bus-interface FIFOs and address generators, config regs
            flipflops=8 * w + 12 * w + 2 * 64 + 3 * 32 + 32 + 26,
            adder_bits=10 * w,       # butterfly add/sub, address adders,
                                     # reduction correction stages
            mux_bits=16 * w,         # operand routing + bus word steering
            comparator_bits=3 * w,
            gates=90 * w,            # control FSM, reduction logic, handshake
            dsp=26,                  # the modular multiplier pipeline
            bram=1,                  # twiddle factor ROM
            notes=["loosely-coupled NTT butterfly unit, II=2"],
        )
