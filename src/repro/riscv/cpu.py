"""The RV32IM + PQ instruction-set simulator.

A functional ISS with a RISCY-style cycle cost model: every retired
instruction charges the cost from :class:`RiscyCostModel`, and PQ
instructions additionally stall for their accelerator's busy cycles.
The simulator is deliberately simple (no MMU, no interrupts, flat
memory) — it models what the paper measures: cycle counts of bare-
metal kernels on a small embedded core.

Program termination: ``ebreak`` halts; ``ecall`` halts with the exit
code taken from register a0 (x10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.riscv.cost_model import DEFAULT_COST_MODEL, RiscyCostModel
from repro.riscv.encoding import Instruction, decode, sign_extend
from repro.riscv.memory import Memory
from repro.riscv.pq_alu import PqAlu

_MASK32 = 0xFFFFFFFF

#: ABI register indices used by the convenience API.
REG_RA, REG_SP, REG_A0, REG_A1 = 1, 2, 10, 11


class CpuError(Exception):
    """Illegal instruction, bad memory access, or runaway execution."""


@dataclass
class ExecutionResult:
    """Summary of one :meth:`Cpu.run`."""

    cycles: int
    instructions: int
    reason: str  # "ebreak", "ecall", or "limit"
    exit_code: int = 0


class Cpu:
    """The instruction-set simulator."""

    def __init__(
        self,
        memory: Memory | None = None,
        pq_alu: PqAlu | None = None,
        cost_model: RiscyCostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.memory = memory or Memory()
        self.pq_alu = pq_alu or PqAlu()
        self.cost_model = cost_model
        self.regs = [0] * 32
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.halt_reason = ""

    # ------------------------------------------------------------------

    def reset(self, pc: int = 0, sp: int | None = None) -> None:
        """Clear architectural state (memory is preserved)."""
        self.regs = [0] * 32
        self.pc = pc
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.halt_reason = ""
        if sp is None:
            sp = self.memory.size - 16
        self.regs[REG_SP] = sp

    def write_reg(self, index: int, value: int) -> None:
        """Write a register (writes to x0 are discarded)."""
        if index:
            self.regs[index] = value & _MASK32

    # ------------------------------------------------------------------

    def step(self) -> Instruction:
        """Fetch, decode and execute one 32-bit instruction."""
        if self.halted:
            raise CpuError("stepping a halted CPU")
        instr = decode(self.memory.load_word(self.pc))
        self._execute(instr)
        self.instret += 1
        return instr

    def run(self, max_instructions: int = 50_000_000) -> ExecutionResult:
        """Run until ebreak/ecall or the instruction limit."""
        while not self.halted and self.instret < max_instructions:
            self.step()
        reason = self.halt_reason if self.halted else "limit"
        return ExecutionResult(
            cycles=self.cycles,
            instructions=self.instret,
            reason=reason,
            exit_code=self.regs[REG_A0],
        )

    # ------------------------------------------------------------------

    def _execute(self, instr: Instruction) -> None:
        m = instr.mnemonic
        cost = self.cost_model
        regs = self.regs
        next_pc = (self.pc + 4) & _MASK32
        cycle_cost = 1

        if m == "lui":
            self.write_reg(instr.rd, instr.imm << 12)
        elif m == "auipc":
            self.write_reg(instr.rd, self.pc + (instr.imm << 12))
        elif m == "jal":
            self.write_reg(instr.rd, next_pc)
            next_pc = (self.pc + instr.imm) & _MASK32
            cycle_cost = cost.jump
        elif m == "jalr":
            target = (regs[instr.rs1] + instr.imm) & _MASK32 & ~1
            self.write_reg(instr.rd, next_pc)
            next_pc = target
            cycle_cost = cost.jump
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            taken = self._branch_taken(m, instr.rs1, instr.rs2)
            if taken:
                next_pc = (self.pc + instr.imm) & _MASK32
            cycle_cost = cost.branch(taken)
        elif m in ("lb", "lh", "lw", "lbu", "lhu"):
            address = (regs[instr.rs1] + instr.imm) & _MASK32
            width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[m]
            value = self.memory.load(address, width)
            if m in ("lb", "lh"):
                value = sign_extend(value, 8 * width) & _MASK32
            self.write_reg(instr.rd, value)
            cycle_cost = cost.load
        elif m in ("sb", "sh", "sw"):
            address = (regs[instr.rs1] + instr.imm) & _MASK32
            width = {"sb": 1, "sh": 2, "sw": 4}[m]
            self.memory.store(address, regs[instr.rs2], width)
            cycle_cost = cost.store
        elif m in ("addi", "slti", "sltiu", "xori", "ori", "andi"):
            self.write_reg(instr.rd, self._alu_imm(m, instr.rs1, instr.imm))
        elif m in ("slli", "srli", "srai"):
            self.write_reg(instr.rd, self._shift_imm(m, instr.rs1, instr.imm))
        elif m in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"):
            self.write_reg(instr.rd, self._alu_reg(m, instr.rs1, instr.rs2))
        elif m in ("mul", "mulh", "mulhsu", "mulhu"):
            self.write_reg(instr.rd, self._multiply(m, instr.rs1, instr.rs2))
            cycle_cost = cost.mul
        elif m in ("div", "divu", "rem", "remu"):
            self.write_reg(instr.rd, self._divide(m, instr.rs1, instr.rs2))
            cycle_cost = cost.div
        elif m.startswith("pq."):
            funct3 = {"pq.mul_ter": 0, "pq.mul_chien": 1, "pq.sha256": 2, "pq.modq": 3}[m]
            value, busy = self.pq_alu.execute(funct3, regs[instr.rs1], regs[instr.rs2])
            self.write_reg(instr.rd, value)
            cycle_cost = cost.pq_issue + busy
        elif m in ("csrrw", "csrrs", "csrrc"):
            # the performance-counter subset of Zicsr: reads return the
            # counters RISCY exposes; writes to the read-only counters
            # are ignored (kernels only ever read them)
            self.write_reg(instr.rd, self._read_csr(instr.imm))
            cycle_cost = cost.csr
        elif m == "ebreak":
            self.halted = True
            self.halt_reason = "ebreak"
        elif m == "ecall":
            self.halted = True
            self.halt_reason = "ecall"
        elif m == "fence":
            pass
        else:  # pragma: no cover - decode() only yields known mnemonics
            raise CpuError(f"unimplemented instruction {m}")

        self.cycles += cycle_cost
        if not self.halted:
            if next_pc & 3:
                # without RV32C a jump or taken branch must land on a
                # word boundary (instruction-address-misaligned)
                raise CpuError(f"misaligned target {next_pc:#x} from pc {self.pc:#x}")
            self.pc = next_pc

    def _read_csr(self, address: int) -> int:
        """The performance counters of the RISC-V counter extension."""
        if address == 0xC00:  # cycle
            return self.cycles & _MASK32
        if address == 0xC80:  # cycleh
            return (self.cycles >> 32) & _MASK32
        if address == 0xC02:  # instret
            return self.instret & _MASK32
        if address == 0xC82:  # instreth
            return (self.instret >> 32) & _MASK32
        if address == 0xF14:  # mhartid
            return 0
        raise CpuError(f"unimplemented CSR {address:#x}")

    # ------------------------------------------------------------------
    # ALU helpers
    # ------------------------------------------------------------------

    def _branch_taken(self, m: str, rs1: int, rs2: int) -> bool:
        u1, u2 = self.regs[rs1], self.regs[rs2]
        s1, s2 = sign_extend(u1, 32), sign_extend(u2, 32)
        return {
            "beq": u1 == u2,
            "bne": u1 != u2,
            "blt": s1 < s2,
            "bge": s1 >= s2,
            "bltu": u1 < u2,
            "bgeu": u1 >= u2,
        }[m]

    def _alu_imm(self, m: str, rs1: int, imm: int) -> int:
        u = self.regs[rs1]
        s = sign_extend(u, 32)
        if m == "addi":
            return (u + imm) & _MASK32
        if m == "slti":
            return 1 if s < imm else 0
        if m == "sltiu":
            return 1 if u < (imm & _MASK32) else 0
        if m == "xori":
            return (u ^ imm) & _MASK32
        if m == "ori":
            return (u | imm) & _MASK32
        return (u & imm) & _MASK32  # andi

    def _shift_imm(self, m: str, rs1: int, shamt: int) -> int:
        u = self.regs[rs1]
        if m == "slli":
            return (u << shamt) & _MASK32
        if m == "srli":
            return u >> shamt
        return (sign_extend(u, 32) >> shamt) & _MASK32  # srai

    def _alu_reg(self, m: str, rs1: int, rs2: int) -> int:
        u1, u2 = self.regs[rs1], self.regs[rs2]
        s1, s2 = sign_extend(u1, 32), sign_extend(u2, 32)
        shamt = u2 & 0x1F
        return {
            "add": (u1 + u2) & _MASK32,
            "sub": (u1 - u2) & _MASK32,
            "sll": (u1 << shamt) & _MASK32,
            "slt": 1 if s1 < s2 else 0,
            "sltu": 1 if u1 < u2 else 0,
            "xor": u1 ^ u2,
            "srl": u1 >> shamt,
            "sra": (s1 >> shamt) & _MASK32,
            "or": u1 | u2,
            "and": u1 & u2,
        }[m]

    def _multiply(self, m: str, rs1: int, rs2: int) -> int:
        u1, u2 = self.regs[rs1], self.regs[rs2]
        s1, s2 = sign_extend(u1, 32), sign_extend(u2, 32)
        if m == "mul":
            return (s1 * s2) & _MASK32
        if m == "mulh":
            return ((s1 * s2) >> 32) & _MASK32
        if m == "mulhsu":
            return ((s1 * u2) >> 32) & _MASK32
        return ((u1 * u2) >> 32) & _MASK32  # mulhu

    def _divide(self, m: str, rs1: int, rs2: int) -> int:
        u1, u2 = self.regs[rs1], self.regs[rs2]
        s1, s2 = sign_extend(u1, 32), sign_extend(u2, 32)
        if m == "div":
            if s2 == 0:
                return _MASK32  # -1
            if s1 == -(1 << 31) and s2 == -1:
                return 1 << 31  # overflow: returns dividend
            quotient = abs(s1) // abs(s2)
            return (quotient if (s1 < 0) == (s2 < 0) else -quotient) & _MASK32
        if m == "divu":
            return _MASK32 if u2 == 0 else u1 // u2
        if m == "rem":
            if s2 == 0:
                return u1
            if s1 == -(1 << 31) and s2 == -1:
                return 0
            remainder = abs(s1) % abs(s2)
            return (remainder if s1 >= 0 else -remainder) & _MASK32
        return u1 if u2 == 0 else u1 % u2  # remu
