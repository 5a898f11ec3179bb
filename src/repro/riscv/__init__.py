"""RV32IM instruction-set simulator with the paper's PQ extension.

The paper integrates its accelerators into the execute stage of the
RISCY core (PULPino) and reaches them through four custom R-type
instructions on opcode 0x77 (Sec. V).  This subpackage provides the
equivalent substrate in simulation:

* :mod:`repro.riscv.encoding` — RV32I + M + PQ instruction encoding
  and decoding (bit-exact RISC-V formats);
* :mod:`repro.riscv.assembler` — a two-pass assembler (labels,
  ABI register names, common pseudo-instructions, data directives);
* :mod:`repro.riscv.cpu` — the instruction-set simulator with a
  RISCY-style cycle cost model (4-stage pipeline approximation) and
  the performance-counter CSRs (``rdcycle``/``rdinstret``);
* :mod:`repro.riscv.pq_alu` — the PQ-ALU: the four accelerator units
  behind ``pq.mul_ter``, ``pq.mul_chien``, ``pq.sha256``, ``pq.modq``,
  including the bit-level operand packing protocol of Sec. V.

Kernels assembled here execute with real cycle accounting, which is
how the analytical cost model of :mod:`repro.cosim` is validated.  The
core is RV32IM + PQ only: every instruction is one 32-bit word, so a
jump or taken branch to a target that is not 4-byte aligned raises
:class:`CpuError`.
"""

from repro.riscv.encoding import decode, encode, Instruction
from repro.riscv.assembler import Assembler, AssemblerError
from repro.riscv.cpu import Cpu, CpuError, ExecutionResult
from repro.riscv.memory import Memory
from repro.riscv.pq_alu import PqAlu
from repro.riscv.cost_model import RiscyCostModel

__all__ = [
    "Assembler",
    "AssemblerError",
    "Cpu",
    "CpuError",
    "ExecutionResult",
    "Instruction",
    "Memory",
    "PqAlu",
    "RiscyCostModel",
    "decode",
    "encode",
]
