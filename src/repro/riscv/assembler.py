"""A two-pass assembler for RV32IM + the PQ extension.

Supports the subset needed to write real benchmark kernels:

* all RV32IM instructions plus ``pq.mul_ter`` / ``pq.mul_chien`` /
  ``pq.sha256`` / ``pq.modq``;
* labels (``name:``), decimal/hex immediates, ABI and ``x``-register
  names;
* pseudo-instructions: ``nop``, ``mv``, ``li`` (12-bit or lui+addi
  pair), ``la``, ``j``, ``call``, ``ret``, ``beqz``, ``bnez``,
  ``bgt``, ``ble``, ``bgtu``, ``bleu``, ``not``, ``neg``, ``seqz``,
  ``snez``;
* data directives: ``.word``, ``.half``, ``.byte``, ``.space``,
  ``.align``, and ``.equ NAME, value`` constants;
* comments with ``#`` or ``//``.

The output is a flat image placed at a base address (PULPino-style
single address space), plus the symbol table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.riscv.encoding import Instruction, SPECS, encode

ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7,
    "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13,
    "a4": 14, "a5": 15, "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
    "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_LOADS = ("lb", "lh", "lw", "lbu", "lhu")
_STORES = ("sb", "sh", "sw")


class AssemblerError(ValueError):
    """Syntax or resolution error, annotated with the source line."""


@dataclass
class Program:
    """An assembled image."""

    base: int
    image: bytes
    symbols: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.image)

    def entry(self, label: str = "_start") -> int:
        """Address of an entry label (defaults to the image base)."""
        return self.symbols.get(label, self.base)


@dataclass
class _Item:
    """One statement after pass 1 (an instruction or data blob)."""

    kind: str  # "instr" or "data"
    address: int
    line_no: int
    mnemonic: str = ""
    operands: list[str] = field(default_factory=list)
    blob: bytes = b""


class Assembler:
    """Two-pass assembler."""

    def __init__(self, base: int = 0) -> None:
        self.base = base

    # ------------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        """Assemble source text into a flat image plus symbol table."""
        items, symbols = self._pass1(source)
        image = bytearray()
        top = self.base
        for item in items:
            top = max(top, item.address + (4 if item.kind == "instr" else len(item.blob)))
        image = bytearray(top - self.base)
        for item in items:
            offset = item.address - self.base
            if item.kind == "data":
                image[offset : offset + len(item.blob)] = item.blob
                continue
            try:
                instr = self._build(item, symbols)
                word = encode(instr)
            except AssemblerError:
                raise
            except ValueError as exc:
                raise AssemblerError(f"line {item.line_no}: {exc}") from exc
            image[offset : offset + 4] = word.to_bytes(4, "little")
        return Program(self.base, bytes(image), symbols)

    # ------------------------------------------------------------------
    # pass 1: layout and symbol collection
    # ------------------------------------------------------------------

    def _pass1(self, source: str) -> tuple[list[_Item], dict[str, int]]:
        items: list[_Item] = []
        symbols: dict[str, int] = {}
        equs: dict[str, int] = {}
        pc = self.base
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#")[0].split("//")[0].strip()
            while line:
                label, sep, rest = line.partition(":")
                if sep and " " not in label and "," not in label and label:
                    if label in symbols:
                        raise AssemblerError(f"line {line_no}: duplicate label {label!r}")
                    symbols[label] = pc
                    line = rest.strip()
                    continue
                break
            if not line:
                continue

            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""

            if head == ".equ":
                name, _, value = (x.strip() for x in rest.partition(","))
                equs[name] = self._int(value, line_no, equs)
                continue
            if head == ".align":
                alignment = 1 << self._int(rest, line_no, equs)
                padding = (-pc) % alignment
                if padding:
                    items.append(_Item("data", pc, line_no, blob=bytes(padding)))
                    pc += padding
                continue
            if head == ".space":
                size = self._int(rest, line_no, equs)
                items.append(_Item("data", pc, line_no, blob=bytes(size)))
                pc += size
                continue
            if head in (".word", ".half", ".byte"):
                width = {".word": 4, ".half": 2, ".byte": 1}[head]
                blob = bytearray()
                for token in rest.split(","):
                    value = self._int(token.strip(), line_no, equs)
                    blob += (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
                items.append(_Item("data", pc, line_no, blob=bytes(blob)))
                pc += len(blob)
                continue
            if head.startswith("."):
                continue  # .text/.data/.globl are accepted and ignored

            operands = [op.strip() for op in rest.split(",")] if rest else []
            for expanded in self._expand_pseudo(head, operands, line_no, equs):
                items.append(
                    _Item("instr", pc, line_no, mnemonic=expanded[0], operands=expanded[1])
                )
                pc += 4
        # fold .equ constants into the symbol table (labels win)
        for name, value in equs.items():
            symbols.setdefault(name, value)
        return items, symbols

    # ------------------------------------------------------------------
    # pseudo-instruction expansion
    # ------------------------------------------------------------------

    def _expand_pseudo(
        self, head: str, ops: list[str], line_no: int, equs: dict[str, int]
    ) -> list[tuple[str, list[str]]]:
        def err(msg: str) -> AssemblerError:
            return AssemblerError(f"line {line_no}: {msg}")

        if head == "nop":
            return [("addi", ["x0", "x0", "0"])]
        if head == "mv":
            if len(ops) != 2:
                raise err("mv needs rd, rs")
            return [("addi", [ops[0], ops[1], "0"])]
        if head == "not":
            return [("xori", [ops[0], ops[1], "-1"])]
        if head == "neg":
            return [("sub", [ops[0], "x0", ops[1]])]
        if head == "seqz":
            return [("sltiu", [ops[0], ops[1], "1"])]
        if head == "snez":
            return [("sltu", [ops[0], "x0", ops[1]])]
        if head == "rdcycle":
            return [("csrrs", [ops[0], "x0", "0xC00"])]
        if head == "rdinstret":
            return [("csrrs", [ops[0], "x0", "0xC02"])]
        if head in ("li", "la"):
            if len(ops) != 2:
                raise err(f"{head} needs rd, value")
            try:
                value = self._int(ops[1], line_no, equs)
            except AssemblerError:
                if head == "la":
                    # label address resolved in pass 2 via %hi/%lo markers
                    return [
                        ("lui", [ops[0], f"%hi({ops[1]})"]),
                        ("addi", [ops[0], ops[0], f"%lo({ops[1]})"]),
                    ]
                raise
            if -2048 <= value <= 2047:
                return [("addi", [ops[0], "x0", str(value)])]
            hi = ((value + 0x800) >> 12) & 0xFFFFF
            lo = value - ((hi << 12) if hi < 0x80000 else ((hi - 0x100000) << 12))
            lo = ((lo + 0x800) % 0x1000) - 0x800
            return [
                ("lui", [ops[0], str(hi)]),
                ("addi", [ops[0], ops[0], str(lo)]),
            ]
        if head == "j":
            return [("jal", ["x0"] + ops)]
        if head == "call":
            return [("jal", ["ra"] + ops)]
        if head == "ret":
            return [("jalr", ["x0", "ra", "0"])]
        if head == "beqz":
            return [("beq", [ops[0], "x0", ops[1]])]
        if head == "bnez":
            return [("bne", [ops[0], "x0", ops[1]])]
        if head == "bgt":
            return [("blt", [ops[1], ops[0], ops[2]])]
        if head == "ble":
            return [("bge", [ops[1], ops[0], ops[2]])]
        if head == "bgtu":
            return [("bltu", [ops[1], ops[0], ops[2]])]
        if head == "bleu":
            return [("bgeu", [ops[1], ops[0], ops[2]])]
        if head == "jal" and len(ops) == 1:
            return [("jal", ["ra"] + ops)]
        if head == "jr":
            return [("jalr", ["x0", ops[0], "0"])]
        if head not in SPECS:
            raise err(f"unknown instruction {head!r}")
        return [(head, ops)]

    # ------------------------------------------------------------------
    # pass 2: operand resolution and encoding
    # ------------------------------------------------------------------

    def _build(self, item: _Item, symbols: dict[str, int]) -> Instruction:
        spec = SPECS[item.mnemonic]
        ops = item.operands
        line_no = item.line_no

        def err(msg: str) -> AssemblerError:
            return AssemblerError(f"line {line_no}: {msg}")

        def reg(token: str) -> int:
            name = token.lower()
            if name in ABI_NAMES:
                return ABI_NAMES[name]
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if 0 <= index < 32:
                    return index
            raise err(f"bad register {token!r}")

        def imm(token: str, pc_relative: bool = False) -> int:
            token = token.strip()
            if token.startswith("%hi(") and token.endswith(")"):
                value = self._resolve(token[4:-1], symbols, line_no)
                return ((value + 0x800) >> 12) & 0xFFFFF
            if token.startswith("%lo(") and token.endswith(")"):
                value = self._resolve(token[4:-1], symbols, line_no)
                return ((value & 0xFFF) ^ 0x800) - 0x800
            value = self._resolve(token, symbols, line_no)
            if pc_relative and token in symbols:
                return value - item.address
            return value

        m = item.mnemonic
        if m in ("ecall", "ebreak", "fence"):
            return Instruction(m)
        if spec.fmt == "R":
            if m.startswith("pq.") and len(ops) == 2:
                ops = ops + ["x0"]  # rs2 defaults to zero for pure forms
            if len(ops) != 3:
                raise err(f"{m} needs rd, rs1, rs2")
            return Instruction(m, rd=reg(ops[0]), rs1=reg(ops[1]), rs2=reg(ops[2]))
        if spec.fmt == "shift":
            return Instruction(m, rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
        if m in _LOADS or m == "jalr":
            if len(ops) == 2 and "(" in ops[1]:
                offset, _, base = ops[1].partition("(")
                return Instruction(
                    m, rd=reg(ops[0]), rs1=reg(base.rstrip(")")),
                    imm=imm(offset or "0"),
                )
            if m == "jalr" and len(ops) == 3:
                return Instruction(m, rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
            raise err(f"{m} needs rd, offset(base)")
        if spec.fmt == "I":
            if len(ops) != 3:
                raise err(f"{m} needs rd, rs1, imm")
            return Instruction(m, rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
        if spec.fmt == "S":
            if len(ops) != 2 or "(" not in ops[1]:
                raise err(f"{m} needs rs2, offset(base)")
            offset, _, base = ops[1].partition("(")
            return Instruction(
                m, rs1=reg(base.rstrip(")")), rs2=reg(ops[0]), imm=imm(offset or "0")
            )
        if spec.fmt == "B":
            if len(ops) != 3:
                raise err(f"{m} needs rs1, rs2, target")
            return Instruction(
                m, rs1=reg(ops[0]), rs2=reg(ops[1]), imm=imm(ops[2], pc_relative=True)
            )
        if spec.fmt == "U":
            return Instruction(m, rd=reg(ops[0]), imm=imm(ops[1]))
        if spec.fmt == "J":
            if len(ops) != 2:
                raise err(f"{m} needs rd, target")
            return Instruction(m, rd=reg(ops[0]), imm=imm(ops[1], pc_relative=True))
        raise err(f"unhandled format for {m}")  # pragma: no cover

    # ------------------------------------------------------------------

    def _resolve(self, token: str, symbols: dict[str, int], line_no: int) -> int:
        token = token.strip()
        if token in symbols:
            return symbols[token]
        return self._int(token, line_no, symbols)

    @staticmethod
    def _int(token: str, line_no: int, names: dict[str, int]) -> int:
        token = token.strip()
        if token in names:
            return names[token]
        try:
            return int(token, 0)
        except ValueError as exc:
            raise AssemblerError(
                f"line {line_no}: cannot resolve {token!r}"
            ) from exc
