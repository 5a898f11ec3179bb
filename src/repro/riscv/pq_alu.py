"""The PQ-ALU: four accelerators behind the 0x77 custom opcode.

This module defines the *bit-level operand protocol* of the paper's
instruction set extension (Sec. V).  All four instructions are R-type;
``funct3`` selects the unit; modes and addresses ride in the upper
bits of rs2, as the paper describes ("Remaining bits of the input
registers ... are used to control the accelerator").

``pq.mul_ter`` (funct3 = 0) — mode = rs2[31:28]:

* mode 0, *write input*: five coefficient pairs per transfer —
  rs1[7:0] .. rs1[31:24] carry general coefficients g0..g3, rs2[7:0]
  carries g4, rs2[17:8] five 2-bit ternary codes (00 -> 0, 01 -> +1,
  10 -> -1), rs2[27:18] the transfer index (coefficient base = 5x).
* mode 1, *start*: rs1[0] = conv_n (1 = negative wrapped convolution);
  the instruction stalls for the unit's ``length`` compute cycles.
* mode 2, *read output*: rs2[17:8] = output group index; rd returns
  four result coefficients (8 bits each, little end first).

``pq.mul_chien`` (funct3 = 1) — mode = rs2[31:28]:

* mode 0/1, *load left/right multiplier pair*: four 9-bit field
  elements packed as rs1[8:0], rs1[24:16], rs2[8:0], rs2[24:16], in
  (constant, lambda, constant, lambda) order.
* mode 2, *step*: one activation (9 + 1 busy cycles); rd returns the
  9-bit partial sum out_j, and the feedback loop latches the products.

``pq.sha256`` (funct3 = 2) — mode = rs2[31:28]:

* mode 0, *write input*: rs1 = four message bytes, rs2[13:8] = block
  buffer address (0, 4, ..., 60).
* mode 1, *generate hash*: one compression, 65 busy cycles.
* mode 2, *read digest*: rs2[10:8] = digest word index; rd = the word.
* mode 3, *reset internal state*.

``pq.modq`` (funct3 = 3) — pure: rd = rs1 mod 251 (single cycle,
Barrett).
"""

from __future__ import annotations

from repro.hw.barrett import BarrettUnit
from repro.hw.chien import ChienUnit
from repro.hw.mul_ter import MulTerUnit
from repro.hw.sha256_accel import Sha256Unit

#: funct3 values of the four PQ instructions (Fig. 6).
FUNCT3_MUL_TER = 0
FUNCT3_MUL_CHIEN = 1
FUNCT3_SHA256 = 2
FUNCT3_MODQ = 3

#: 2-bit ternary coefficient codes used by the transfer protocol.
TERNARY_CODE = {0: 0b00, 1: 0b01, -1: 0b10}
TERNARY_DECODE = {0b00: 0, 0b01: 1, 0b10: -1}


class PqAluError(Exception):
    """Malformed PQ instruction operands."""


class PqAlu:
    """The accelerator cluster attached to the RISCY execute stage."""

    def __init__(self, mul_ter_length: int = 512) -> None:
        self.mul_ter = MulTerUnit(mul_ter_length)
        self.chien = ChienUnit()
        self.sha256 = Sha256Unit()
        self.barrett = BarrettUnit()

    # ------------------------------------------------------------------

    def execute(self, funct3: int, rs1: int, rs2: int) -> tuple[int, int]:
        """Dispatch one PQ instruction.

        Returns ``(rd_value, busy_cycles)`` — busy cycles are the EX
        stall on top of the instruction's own issue cycle.
        """
        if funct3 == FUNCT3_MUL_TER:
            return self._mul_ter(rs1, rs2)
        if funct3 == FUNCT3_MUL_CHIEN:
            return self._mul_chien(rs1, rs2)
        if funct3 == FUNCT3_SHA256:
            return self._sha256(rs1, rs2)
        if funct3 == FUNCT3_MODQ:
            return self.barrett.reduce(rs1 & 0xFFFFFFFF), 0
        raise PqAluError(f"no PQ unit behind funct3={funct3}")

    # ------------------------------------------------------------------

    def _mul_ter(self, rs1: int, rs2: int) -> tuple[int, int]:
        mode = (rs2 >> 28) & 0xF
        unit = self.mul_ter
        if mode == 0:
            index = ((rs2 >> 18) & 0x3FF) * 5
            general = [
                (rs1 >> 0) & 0xFF, (rs1 >> 8) & 0xFF,
                (rs1 >> 16) & 0xFF, (rs1 >> 24) & 0xFF,
                rs2 & 0xFF,
            ]
            ternary = []
            for lane in range(5):
                code = (rs2 >> (8 + 2 * lane)) & 0x3
                if code not in TERNARY_DECODE:
                    raise PqAluError(f"invalid ternary code {code:#b}")
                ternary.append(TERNARY_DECODE[code])
            count = min(5, unit.length - index)
            if count <= 0:
                raise PqAluError("transfer index beyond the coefficient buffer")
            unit.load_coefficients(index, general[:count], ternary[:count])
            return 0, 0
        if mode == 1:
            unit.start(conv_n=bool(rs1 & 1))
            return 0, unit.run_to_completion()
        if mode == 2:
            index = ((rs2 >> 8) & 0x3FF) * 4
            coeffs = unit.read_result(index)
            word = 0
            for lane, c in enumerate(coeffs):
                word |= (c & 0xFF) << (8 * lane)
            return word, 0
        raise PqAluError(f"pq.mul_ter has no mode {mode}")

    def _mul_chien(self, rs1: int, rs2: int) -> tuple[int, int]:
        mode = (rs2 >> 28) & 0xF
        elements = [rs1 & 0x1FF, (rs1 >> 16) & 0x1FF, rs2 & 0x1FF, (rs2 >> 16) & 0x1FF]
        if mode == 0:
            self.chien.load_left(elements)
            return 0, 0
        if mode == 1:
            self.chien.load_right(elements)
            return 0, 0
        if mode == 2:
            value = self.chien.step()
            return value, self.chien.cycles_per_step
        raise PqAluError(f"pq.mul_chien has no mode {mode}")

    def _sha256(self, rs1: int, rs2: int) -> tuple[int, int]:
        mode = (rs2 >> 28) & 0xF
        unit = self.sha256
        if mode == 0:
            address = (rs2 >> 8) & 0x3F
            unit.write_bytes(address, rs1.to_bytes(4, "little"))
            return 0, 0
        if mode == 1:
            unit.generate_hash()
            return 0, unit.cycles_per_block
        if mode == 2:
            index = (rs2 >> 8) & 0x7
            return int.from_bytes(unit.read_digest_word(index), "big"), 0
        if mode == 3:
            unit.reset_state()
            return 0, 0
        raise PqAluError(f"pq.sha256 has no mode {mode}")

    # ------------------------------------------------------------------
    # software-side packing helpers (used by drivers and tests)
    # ------------------------------------------------------------------

    @staticmethod
    def pack_mul_ter_input(
        index: int, general: list[int], ternary: list[int]
    ) -> tuple[int, int]:
        """Build (rs1, rs2) for a mode-0 pq.mul_ter transfer."""
        if len(general) > 5 or len(general) != len(ternary):
            raise PqAluError("five matched coefficient pairs per transfer")
        general = list(general) + [0] * (5 - len(general))
        ternary = list(ternary) + [0] * (5 - len(ternary))
        rs1 = 0
        for lane in range(4):
            rs1 |= (general[lane] & 0xFF) << (8 * lane)
        rs2 = general[4] & 0xFF
        for lane, t in enumerate(ternary):
            rs2 |= TERNARY_CODE[t] << (8 + 2 * lane)
        rs2 |= (index & 0x3FF) << 18
        # mode 0 in the top nibble (already zero)
        return rs1, rs2

    @staticmethod
    def pack_mul_ter_start(conv_n: bool) -> tuple[int, int]:
        return (1 if conv_n else 0), 1 << 28

    @staticmethod
    def pack_mul_ter_read(group: int) -> tuple[int, int]:
        return 0, (2 << 28) | ((group & 0x3FF) << 8)

    @staticmethod
    def pack_chien_load(elements: list[int], right: bool) -> tuple[int, int]:
        if len(elements) != 4:
            raise PqAluError("chien loads carry four field elements")
        rs1 = (elements[0] & 0x1FF) | ((elements[1] & 0x1FF) << 16)
        rs2 = (elements[2] & 0x1FF) | ((elements[3] & 0x1FF) << 16)
        rs2 |= (1 if right else 0) << 28
        return rs1, rs2

    @staticmethod
    def pack_chien_step() -> tuple[int, int]:
        return 0, 2 << 28

    @staticmethod
    def pack_sha_write(address: int, data: bytes) -> tuple[int, int]:
        if len(data) != 4:
            raise PqAluError("sha transfers carry four bytes")
        return int.from_bytes(data, "little"), ((address & 0x3F) << 8)

    @staticmethod
    def pack_sha_hash() -> tuple[int, int]:
        return 0, 1 << 28

    @staticmethod
    def pack_sha_read(index: int) -> tuple[int, int]:
        return 0, (2 << 28) | ((index & 0x7) << 8)

    @staticmethod
    def pack_sha_reset() -> tuple[int, int]:
        return 0, 3 << 28
