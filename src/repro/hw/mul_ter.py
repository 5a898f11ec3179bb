"""The MUL TER ternary polynomial multiplier (Fig. 2 of the paper).

Architecture: an array of ``length`` Modular Arithmetic Units, one per
coefficient of the general operand b, feeding a circularly shifting
bank of 8-bit result registers.  The Control Unit serializes one
ternary coefficient a_cntr per clock (starting from a_0); each lane's
multiplexer forwards a_cntr or its negation depending on ``conv_n``
and the lane index (negation for lanes m > length-1-cntr implements
the negative wrap of x^n + 1 without any extra cycles).  After
``length`` clocks the registers hold the wrapped convolution.

The register bank is simulated cycle by cycle (vectorized across
lanes), so the model is faithful to the RTL schedule: ``length``
compute cycles, plus buffered I/O (5 coefficient pairs written per
transfer, 4 result coefficients read per transfer — Sec. V).

The unit is length-parameterizable for the area/performance ablation;
the paper's instance is length 512.
"""

from __future__ import annotations

import numpy as np

from repro.hw.common import ClockedUnit, ComponentInventory
from repro.hw.mau import ModularArithmeticUnit
from repro.ring.poly import LAC_Q
from repro.ring.splitting import Mul512

#: Coefficient pairs (general + ternary) accepted per input transfer.
INPUT_COEFFS_PER_TRANSFER = 5
#: Result coefficients returned per output transfer.
OUTPUT_COEFFS_PER_TRANSFER = 4


class MulTerUnit(ClockedUnit):
    """Cycle-accurate model of the MUL TER accelerator."""

    def __init__(self, length: int = 512, q: int = LAC_Q) -> None:
        super().__init__()
        if length < 2:
            raise ValueError("MUL TER length must be >= 2")
        self.length = length
        self.q = q
        self.mau = ModularArithmeticUnit(q)
        # input buffers (written via the pq.mul_ter read-input mode)
        self.general_buffer = np.zeros(length, dtype=np.int64)
        self.ternary_buffer = np.zeros(length, dtype=np.int64)
        # the shifting result register bank
        self.registers = np.zeros(length, dtype=np.int64)
        self.conv_n = True  # negative wrapped convolution by default
        self._cntr = 0
        self._running = False

    # ------------------------------------------------------------------
    # buffer access (driven by the ISE transfer protocol)
    # ------------------------------------------------------------------

    def load_coefficients(
        self, index: int, general: list[int], ternary: list[int]
    ) -> None:
        """One input transfer: up to 5 coefficient pairs at ``index``.

        Models a single-cycle buffer write (the instruction's data path).
        """
        if len(general) != len(ternary) or len(general) > INPUT_COEFFS_PER_TRANSFER:
            raise ValueError("at most 5 matched coefficient pairs per transfer")
        if index < 0 or index + len(general) > self.length:
            raise ValueError("transfer exceeds the coefficient buffer")
        for offset, (g, t) in enumerate(zip(general, ternary)):
            if not 0 <= g < self.q:
                raise ValueError(f"general coefficient {g} not reduced mod q")
            if t not in (-1, 0, 1):
                raise ValueError(f"ternary coefficient {t} not in {{-1,0,1}}")
            self.general_buffer[index + offset] = g
            self.ternary_buffer[index + offset] = t
        self.tick()  # one clock per buffered write

    def read_result(self, index: int) -> list[int]:
        """One output transfer: 4 result coefficients starting at ``index``."""
        if self._running:
            raise RuntimeError("MUL TER is still computing")
        stop = min(index + OUTPUT_COEFFS_PER_TRANSFER, self.length)
        if index < 0 or index >= self.length:
            raise ValueError("read index outside the register bank")
        self.tick()  # one clock per buffered read
        return [int(x) for x in self.registers[index:stop]]

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------

    def start(self, conv_n: bool) -> None:
        """Pulse the start signal: clear registers, select convolution."""
        self.conv_n = conv_n
        self.registers[:] = 0
        self._cntr = 0
        self._running = True

    def _tick(self) -> None:
        if not self._running:
            return  # idle / I/O clock
        n = self.length
        cntr = self._cntr
        a_t = int(self.ternary_buffer[cntr])
        # per-lane sign mux: negate a_cntr for lanes m > n-1-cntr when
        # the negative wrapped convolution is selected (paper's sel_i)
        signs = np.ones(n, dtype=np.int64)
        if self.conv_n:
            signs[np.arange(n) > n - 1 - cntr] = -1
        # every MAU lane computes r_m +/- a_t*b_m (or forwards on a_t=0)
        out = np.mod(self.registers + signs * a_t * self.general_buffer, self.q)
        # register bank shift: r_{m-1} <- out_m, rightmost MAU wraps to
        # register c_{n-1} (the paper's feedback loop)
        self.registers = np.roll(out, -1)
        self._cntr += 1
        if self._cntr == n:
            self._running = False

    def run_to_completion(self) -> int:
        """Clock the unit until the multiplication finishes.

        Returns the number of cycles spent (always ``length``).
        """
        spent = 0
        while self._running:
            self.tick()
            spent += 1
        return spent

    # ------------------------------------------------------------------
    # convenience drivers
    # ------------------------------------------------------------------

    def multiply(
        self, ternary: np.ndarray, general: np.ndarray, negacyclic: bool = True
    ) -> np.ndarray:
        """Full transaction: load buffers, compute, read back.

        ``cycle_count`` advances by the complete schedule:
        ceil(n/5) input transfers + n compute + ceil(n/4) output reads.
        """
        n = self.length
        if ternary.size != n or general.size != n:
            raise ValueError(f"operands must have length {n}")
        for index in range(0, n, INPUT_COEFFS_PER_TRANSFER):
            stop = min(index + INPUT_COEFFS_PER_TRANSFER, n)
            self.load_coefficients(
                index,
                [int(x) % self.q for x in general[index:stop]],
                [int(x) for x in ternary[index:stop]],
            )
        self.start(negacyclic)
        self.run_to_completion()
        out = np.empty(n, dtype=np.int64)
        for index in range(0, n, OUTPUT_COEFFS_PER_TRANSFER):
            chunk = self.read_result(index)
            out[index : index + len(chunk)] = chunk
        return out

    def as_mul512(self) -> Mul512:
        """Adapter matching the :data:`repro.ring.splitting.Mul512` signature."""

        def mul512(ternary: np.ndarray, general: np.ndarray, negacyclic: bool) -> np.ndarray:
            return self.multiply(ternary, general, negacyclic)

        return mul512

    # ------------------------------------------------------------------
    # schedule / structure
    # ------------------------------------------------------------------

    @property
    def input_transfers(self) -> int:
        return -(-self.length // INPUT_COEFFS_PER_TRANSFER)

    @property
    def output_transfers(self) -> int:
        return -(-self.length // OUTPUT_COEFFS_PER_TRANSFER)

    @property
    def compute_cycles(self) -> int:
        return self.length

    def inventory(self) -> ComponentInventory:
        """Structural cost: n MAU lanes + registers + control.

        Register budget (n = 512): 512x8 result + 512x8 general buffer
        + 512x2 ternary buffer + control = 9,216 + control bits, which
        is what Table III reports (9,305 registers).
        """
        n = self.length
        lanes = self.mau.inventory().scaled(n)
        # per-lane sign mux on the serialized ternary coefficient
        sign_muxes = ComponentInventory(mux_bits=2 * n, comparator_bits=10)
        storage = ComponentInventory(
            flipflops=8 * n + 8 * n + 2 * n,  # result, general, ternary
        )
        control = ComponentInventory(
            flipflops=2 * (n.bit_length() + 1) + 8,  # cntr, address, FSM
            adder_bits=n.bit_length() + 1,
            comparator_bits=n.bit_length() + 1,
            gates=40,
            notes=[f"MUL TER length {n}"],
        )
        io = ComponentInventory(
            mux_bits=8 * OUTPUT_COEFFS_PER_TRANSFER * (n.bit_length() - 2),
            notes=["input/output transfer muxing"],
        )
        return lanes + sign_muxes + storage + control + io
