"""ISS validation of the analytical cycle model.

Each kernel here exists twice: as real RISC-V assembly executed on the
instruction-set simulator, and as an analytical prediction built from
the same :class:`RiscyCostModel` prices.  The validation asserts both
*functional equivalence* (the accelerator data path produces the
golden result from machine code, through the real operand-packing
protocol) and *cycle agreement* (the ISS-measured cycles equal the
instruction-schedule prediction) — closing the loop between the
annotated-operation-count models of :mod:`repro.cosim` and an actual
execution trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashes.sha256 import IV, compress
from repro.riscv.assembler import Assembler
from repro.riscv.cost_model import DEFAULT_COST_MODEL
from repro.riscv.cpu import Cpu
from repro.riscv.memory import Memory
from repro.riscv.pq_alu import PqAlu
from repro.ring.poly import PolyRing

#: Data region base (code starts at 0).
DATA_BASE = 0x10000


@dataclass
class KernelValidation:
    """Outcome of one kernel run."""

    name: str
    iss_cycles: int
    predicted_cycles: int
    functional_ok: bool

    @property
    def exact(self) -> bool:
        return self.iss_cycles == self.predicted_cycles


def _run(source: str, preload: dict[int, bytes], mul_ter_length: int = 512) -> Cpu:
    program = Assembler().assemble(source)
    cpu = Cpu(Memory(1 << 20), PqAlu(mul_ter_length))
    cpu.memory.write_bytes(program.base, program.image)
    for address, blob in preload.items():
        cpu.memory.write_bytes(address, blob)
    cpu.reset(pc=program.entry())
    result = cpu.run()
    if result.reason not in ("ecall", "ebreak"):
        raise RuntimeError(f"kernel did not terminate: {result}")
    return cpu


# ---------------------------------------------------------------------------
# kernel 1: array reduction mod q — remu vs. pq.modq
# ---------------------------------------------------------------------------

_MODQ_TEMPLATE = """
.equ SRC, {src}
.equ DST, {dst}
_start:
    li   a0, SRC
    li   a1, DST
    li   a2, {count}
{setup}
loop:
    lw   t0, 0(a0)
{reduce}
    sw   t1, 0(a1)
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, -1
    bnez a2, loop
    ecall
"""


def validate_modq_kernel(count: int = 64, use_ise: bool = True) -> KernelValidation:
    """Reduce ``count`` words mod 251 via remu or pq.modq."""
    rng = np.random.default_rng(99)
    values = rng.integers(0, 1 << 32, count, dtype=np.uint64)
    src, dst = DATA_BASE, DATA_BASE + 4 * count
    source = _MODQ_TEMPLATE.format(
        src=src,
        dst=dst,
        count=count,
        setup="" if use_ise else "    li   t2, 251",
        reduce="    pq.modq t1, t0" if use_ise else "    remu t1, t0, t2",
    )
    blob = b"".join(int(v).to_bytes(4, "little") for v in values)
    cpu = _run(source, {src: blob})

    got = [cpu.memory.load_word(dst + 4 * i) for i in range(count)]
    functional_ok = got == [int(v) % 251 for v in values]

    c = DEFAULT_COST_MODEL
    per_iter = c.load + (c.pq_issue if use_ise else c.div) + c.store + 3 * c.alu
    # loop-back branch taken count-1 times, falls through once
    predicted = (
        2 * 2 * c.alu  # li SRC/DST expand to lui+addi pairs
        + c.alu        # li count (fits 12 bits)
        + (0 if use_ise else c.alu)  # modulus setup
        + count * per_iter
        + (count - 1) * c.branch_taken
        + c.branch_not_taken
        + c.alu  # final ecall accounting (halt consumes one cycle)
    )
    return KernelValidation(
        name="modq_ise" if use_ise else "modq_sw",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


# ---------------------------------------------------------------------------
# kernel 2: a full MUL TER transaction from machine code
# ---------------------------------------------------------------------------

_MUL_TER_SOURCE = """
.equ RS1TAB, {rs1tab}
.equ RS2TAB, {rs2tab}
.equ OUT, {out}
_start:
    li   s0, RS1TAB
    li   s1, RS2TAB
    li   s2, {transfers}
xfer:
    lw   t0, 0(s0)
    lw   t1, 0(s1)
    pq.mul_ter x0, t0, t1
    addi s0, s0, 4
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, xfer
    li   t0, 1            # conv_n = 1 (negative wrapped convolution)
    li   t1, {start_ctrl}
    pq.mul_ter x0, t0, t1
    li   s0, OUT
    li   s2, {reads}
    li   s3, 0
    li   s4, {read_ctrl}
read:
    slli t1, s3, 8
    or   t1, t1, s4
    pq.mul_ter t0, x0, t1
    sw   t0, 0(s0)
    addi s0, s0, 4
    addi s3, s3, 1
    addi s2, s2, -1
    bnez s2, read
    ecall
"""


def validate_mul_ter_kernel(length: int = 512) -> KernelValidation:
    """Drive a full accelerator multiplication through pq.mul_ter.

    The operand words are pre-packed by the host (the transfer loop
    measures the ISE data path; software packing costs are validated
    separately through the cycle-model calibration).
    """
    rng = np.random.default_rng(5)
    ternary = rng.integers(-1, 2, length).astype(np.int64)
    general = rng.integers(0, 251, length).astype(np.int64)

    rs1_words: list[int] = []
    rs2_words: list[int] = []
    for base in range(0, length, 5):
        stop = min(base + 5, length)
        rs1, rs2 = PqAlu.pack_mul_ter_input(
            base // 5,
            [int(x) for x in general[base:stop]],
            [int(x) for x in ternary[base:stop]],
        )
        rs1_words.append(rs1)
        rs2_words.append(rs2)

    transfers = len(rs1_words)
    reads = -(-length // 4)
    rs1tab = DATA_BASE
    rs2tab = rs1tab + 4 * transfers
    out = rs2tab + 4 * transfers

    source = _MUL_TER_SOURCE.format(
        rs1tab=rs1tab,
        rs2tab=rs2tab,
        out=out,
        transfers=transfers,
        reads=reads,
        start_ctrl=1 << 28,
        read_ctrl=2 << 28,
    )
    preload = {
        rs1tab: b"".join(w.to_bytes(4, "little") for w in rs1_words),
        rs2tab: b"".join(w.to_bytes(4, "little") for w in rs2_words),
    }
    cpu = _run(source, preload, mul_ter_length=length)

    result = np.frombuffer(
        cpu.memory.read_bytes(out, length), dtype=np.uint8
    ).astype(np.int64)
    golden = PolyRing(length).mul(np.mod(ternary, 251), general)
    functional_ok = bool(np.array_equal(result, golden))

    c = DEFAULT_COST_MODEL
    predicted = (
        2 * 2 * c.alu + c.alu  # li s0/s1 (lui+addi pairs), li s2 (small)
        + transfers * (2 * c.load + c.pq_issue + 3 * c.alu)
        + (transfers - 1) * c.branch_taken + c.branch_not_taken
        + c.alu + 2 * c.alu  # li t0, li t1 (lui only would be 1; li emits pair)
        + (c.pq_issue + length)  # start + busy
        + 2 * c.alu + c.alu + c.alu + 2 * c.alu  # li s0 (pair), s2, s3, s4 (pair)
        + reads * (2 * c.alu + c.pq_issue + c.store + 3 * c.alu)
        + (reads - 1) * c.branch_taken + c.branch_not_taken
        + c.alu  # ecall
    )
    return KernelValidation(
        name=f"mul_ter_{length}",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


# ---------------------------------------------------------------------------
# kernel 3: one SHA-256 compression through pq.sha256
# ---------------------------------------------------------------------------

_SHA_SOURCE = """
.equ MSG, {msg}
.equ DIGEST, {digest}
_start:
    li   t1, {reset_ctrl}
    pq.sha256 x0, x0, t1
    li   s0, MSG
    li   s2, 16
    li   s3, 0
wr:
    lw   t0, 0(s0)
    slli t1, s3, 8
    pq.sha256 x0, t0, t1
    addi s0, s0, 4
    addi s3, s3, 4
    addi s2, s2, -1
    bnez s2, wr
    li   t1, {hash_ctrl}
    pq.sha256 x0, x0, t1
    li   s0, DIGEST
    li   s2, 8
    li   s3, 0
    li   s4, {read_ctrl}
rd:
    slli t1, s3, 8
    or   t1, t1, s4
    pq.sha256 t0, x0, t1
    sw   t0, 0(s0)
    addi s0, s0, 4
    addi s3, s3, 1
    addi s2, s2, -1
    bnez s2, rd
    ecall
"""


def validate_sha256_kernel() -> KernelValidation:
    """One compression of a 64-byte block via the accelerator."""
    block = bytes(range(64))
    msg, digest = DATA_BASE, DATA_BASE + 64
    source = _SHA_SOURCE.format(
        msg=msg,
        digest=digest,
        reset_ctrl=3 << 28,
        hash_ctrl=1 << 28,
        read_ctrl=2 << 28,
    )
    cpu = _run(source, {msg: block})

    got = cpu.memory.read_bytes(digest, 32)
    # the register holds the big-endian digest word; sw stores it with
    # the core's little-endian byte order
    want = b"".join(w.to_bytes(4, "little") for w in compress(IV, block))
    functional_ok = got == want

    c = DEFAULT_COST_MODEL
    busy = 65
    predicted = (
        2 * c.alu + c.pq_issue        # reset
        + 2 * c.alu + 2 * c.alu       # li s0 (pair), li s2 + li s3
        + 16 * (c.load + c.alu + c.pq_issue + 3 * c.alu)
        + 15 * c.branch_taken + c.branch_not_taken
        + 2 * c.alu + (c.pq_issue + busy)   # hash
        + 2 * c.alu + 2 * c.alu + 2 * c.alu  # li s0 (pair), s2, s3, s4 (pair)
        + 8 * (2 * c.alu + c.pq_issue + c.store + 3 * c.alu)
        + 7 * c.branch_taken + c.branch_not_taken
        + c.alu
    )
    return KernelValidation(
        name="sha256_block",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


# ---------------------------------------------------------------------------
# kernel 4: the reference mod-add inner loop (calibration anchor)
# ---------------------------------------------------------------------------

_MODADD_SOURCE = """
.equ A, {a}
.equ B, {b}
_start:
    li   a0, A
    li   a1, B
    li   a2, {count}
    li   a3, 251
loop:
    lbu  t0, 0(a0)
    lbu  t1, 0(a1)
    add  t0, t0, t1
    sltu t2, t0, a3        # t2 = (t0 < q)
    addi t2, t2, -1        # mask: 0 if t0 < q else -1
    and  t2, t2, a3
    sub  t0, t0, t2        # branchless conditional correction
    sb   t0, 0(a0)
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    bnez a2, loop
    ecall
"""


def validate_modadd_kernel(count: int = 256) -> KernelValidation:
    """The ternary multiplier's software inner loop, on the ISS.

    The analytical model charges 2 loads + 2 ALU + store + loop = 9
    cycles per inner iteration (the Table II calibration anchor).  This
    naive one-element-per-iteration loop costs 16 (three pointer bumps
    and a full taken branch per element); a compiler unrolling by four
    amortizes the bookkeeping to ~2 cycles/element, landing at the
    anchor.  The validation asserts the ISS agrees with the
    instruction-schedule prediction exactly.
    """
    rng = np.random.default_rng(17)
    a = rng.integers(0, 251, count).astype(np.uint8)
    b = rng.integers(0, 251, count).astype(np.uint8)
    addr_a, addr_b = DATA_BASE, DATA_BASE + count
    source = _MODADD_SOURCE.format(a=addr_a, b=addr_b, count=count)
    cpu = _run(source, {addr_a: a.tobytes(), addr_b: b.tobytes()})

    got = np.frombuffer(cpu.memory.read_bytes(addr_a, count), dtype=np.uint8)
    functional_ok = bool(np.array_equal(got, (a.astype(int) + b) % 251))

    c = DEFAULT_COST_MODEL
    predicted = (
        2 * 2 * c.alu + 2 * c.alu  # address li pairs + count/modulus li
        + count * (2 * c.load + 8 * c.alu + c.store)
        + (count - 1) * c.branch_taken + c.branch_not_taken
        + c.alu
    )
    return KernelValidation(
        name="modadd_inner_loop",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


# ---------------------------------------------------------------------------
# kernel 5: the accelerated Chien search loop through pq.mul_chien
# ---------------------------------------------------------------------------

_CHIEN_SOURCE = """
.equ LOADTAB, {loadtab}
.equ PARTIAL, {partial}
_start:
    li   s0, LOADTAB
    li   s5, {groups}
group:
    lw   t0, 0(s0)          # left-pair transfer operands
    lw   t1, 4(s0)
    pq.mul_chien x0, t0, t1
    lw   t0, 8(s0)          # right-pair transfer operands
    lw   t1, 12(s0)
    pq.mul_chien x0, t0, t1
    li   s1, PARTIAL
    li   s2, {probes}
    li   s4, {step_ctrl}
probe:
    pq.mul_chien t2, x0, s4  # one activation: out_j for the next power
    lw   t3, 0(s1)
    xor  t3, t3, t2
    sw   t3, 0(s1)
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, probe
    addi s0, s0, 16
    addi s5, s5, -1
    bnez s5, group
    ecall
"""


def validate_chien_kernel(probes: int = 64) -> KernelValidation:
    """Drive the message-window Chien search through pq.mul_chien.

    The driver loop mirrors :class:`repro.cosim.accelerated.IseBchDecoder`:
    each locator group is loaded once (two packed transfers) and then
    stepped across all probes, with the partial sums accumulated in
    memory; the host combines with lambda_0 and compares the detected
    roots against a naive polynomial evaluation.
    """
    from repro.gf.field import GF512
    from repro.hw.chien import ChienUnit

    # a degree-3 locator with roots inside the probed window: the
    # product of (1 + alpha^-e x), as t + 1 = 17 coefficients
    start = 112
    root_exponents = [120, 150, 160]
    lambdas = [1] + [0] * 16
    for exp in root_exponents:
        inverse = GF512.inv(GF512.alpha_pow(exp))
        lambdas = lambdas[:1] + [
            lambdas[i] ^ GF512.mul(inverse, lambdas[i - 1]) for i in range(1, 17)
        ]

    unit = ChienUnit()
    groups = 4  # t = 16
    load_words: list[int] = []
    for group in range(groups):
        left, right, _ = unit.group_elements(lambdas, group, start)
        rs1_l, rs2_l = PqAlu.pack_chien_load(left, right=False)
        rs1_r, rs2_r = PqAlu.pack_chien_load(right, right=True)
        load_words += [rs1_l, rs2_l, rs1_r, rs2_r]

    loadtab = DATA_BASE
    partial = DATA_BASE + 4 * len(load_words)
    source = _CHIEN_SOURCE.format(
        loadtab=loadtab,
        partial=partial,
        groups=groups,
        probes=probes,
        step_ctrl=2 << 28,
    )
    preload = {
        loadtab: b"".join(w.to_bytes(4, "little") for w in load_words),
        partial: bytes(4 * probes),
    }
    cpu = _run(source, preload)

    lambda0 = lambdas[0]
    found = [
        start + i
        for i in range(probes)
        if (lambda0 ^ cpu.memory.load_word(partial + 4 * i)) == 0
    ]
    naive = []  # Horner evaluation at every probed point
    for i in range(probes):
        value = 0
        for coefficient in reversed(lambdas):
            value = GF512.mul(value, GF512.alpha_pow(start + i)) ^ coefficient
        if value == 0:
            naive.append(start + i)
    functional_ok = found == naive == root_exponents

    c = DEFAULT_COST_MODEL
    busy = ChienUnit().cycles_per_step
    per_probe = (c.pq_issue + busy) + c.load + c.alu + c.store + 2 * c.alu
    predicted = (
        2 * c.alu + c.alu  # li s0 (pair), li s5
        + groups * (
            4 * c.load + 2 * c.pq_issue      # group loads
            + 2 * c.alu + c.alu + 2 * c.alu  # li s1 (pair), s2, s4 (pair)
            + probes * per_probe
            + (probes - 1) * c.branch_taken + c.branch_not_taken
            + 2 * c.alu                      # group pointer/counter bumps
        )
        + (groups - 1) * c.branch_taken + c.branch_not_taken
        + c.alu  # ecall
    )
    return KernelValidation(
        name="chien_search",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


# ---------------------------------------------------------------------------
# kernel 6: constant-time BCH syndrome computation (pure software)
# ---------------------------------------------------------------------------

_SYNDROME_SOURCE = """
.equ WORD, {word}
.equ ANTILOG, {antilog}
.equ SYND, {synd}
.equ NBITS, {nbits}
.equ TWOT, {twot}

# Dense constant-time syndromes: for every position i and every j in
# 1..2t, S_j ^= antilog[(i*j) mod 511] * bit_i  (masked, no branch on
# the bit value).  t0 tracks i, s7 the running exponent i*j mod 511.
_start:
    li   s0, WORD
    li   s1, ANTILOG
    li   s2, SYND
    li   s3, 511
    li   t0, 0              # i
outer:
    lbu  t1, 0(s0)          # bit_i (0 or 1)
    neg  t1, t1             # mask: 0 or 0xFFFFFFFF
    li   t2, 0              # j - 1
    mv   s7, x0             # exponent = i*0 mod 511
inner:
    add  s7, s7, t0         # exponent += i
    blt  s7, s3, nored
    sub  s7, s7, s3         # mod 511 by conditional subtract
nored:
    slli t3, s7, 1          # antilog table has 2-byte entries
    add  t3, t3, s1
    lhu  t4, 0(t3)          # alpha^(i*j)
    and  t4, t4, t1         # masked by bit_i
    slli t5, t2, 1
    add  t5, t5, s2
    lhu  t6, 0(t5)
    xor  t6, t6, t4
    sh   t6, 0(t5)          # S_j ^= term
    addi t2, t2, 1
    li   t5, TWOT
    bne  t2, t5, inner
    addi s0, s0, 1
    addi t0, t0, 1
    li   t5, NBITS
    bne  t0, t5, outer
    li   a0, 0
    ecall
"""


def validate_syndrome_kernel(errors: int = 5) -> KernelValidation:
    """Constant-time BCH(511,367,16) syndromes on the ISS.

    The host precomputes the antilog table (public data); the program
    runs the dense masked accumulation over all 400 positions and 32
    syndrome slots.  Validated against the Python constant-time
    decoder's syndromes; the cycle prediction is built from the exact
    instruction schedule, including the data-dependent conditional
    subtract in the exponent update (whose count the host computes
    from public quantities only — i and j, never the codeword).
    """
    from repro.bch.code import LAC_BCH_128_256
    from repro.bch.ct_decoder import ConstantTimeBCHDecoder
    from repro.bch.encoder import BCHEncoder
    from repro.gf.field import GF512

    code = LAC_BCH_128_256
    rng = np.random.default_rng(31)
    message = rng.integers(0, 2, code.k).astype(np.uint8)
    word = BCHEncoder(code).encode(message)
    if errors:
        positions = rng.choice(code.n, size=errors, replace=False)
        word[positions] ^= 1

    antilog = b"".join(
        GF512.alpha_pow(i).to_bytes(2, "little") for i in range(511)
    )
    two_t = 2 * code.t
    word_base = DATA_BASE
    antilog_base = word_base + code.n
    synd_base = antilog_base + len(antilog)

    source = _SYNDROME_SOURCE.format(
        word=word_base,
        antilog=antilog_base,
        synd=synd_base,
        nbits=code.n,
        twot=two_t,
    )
    preload = {
        word_base: bytes(int(b) for b in word),
        antilog_base: antilog,
        synd_base: bytes(2 * two_t),
    }
    cpu = _run(source, preload)

    from repro.metrics import NULL_COUNTER

    got = [cpu.memory.load(synd_base + 2 * j, 2) for j in range(two_t)]
    expected = ConstantTimeBCHDecoder(code)._syndromes_scalar(word, NULL_COUNTER)
    functional_ok = got == expected

    c = DEFAULT_COST_MODEL
    # count the exponent-reduction branches from public indices
    reductions = 0
    for i in range(code.n):
        exponent = 0
        for _ in range(two_t):
            exponent += i
            if exponent >= 511:
                exponent -= 511
                reductions += 1
    total_inner = code.n * two_t
    predicted = (
        3 * 2 * c.alu + 2 * c.alu  # li s0/s1/s2 (pairs), s3, t0(li 0 -> 1)
        + code.n * (c.load + c.alu + c.alu + c.alu)  # lbu, neg, li t2, mv
        + total_inner * (
            c.alu                       # add exponent
            + 2 * c.load + 2 * c.alu    # table loads + address shifts
            + 2 * c.alu                 # add addresses
            + c.alu                     # and mask
            + c.alu                     # xor
            + c.store                   # sh
            + 2 * c.alu                 # addi j, li TWOT
        )
        + reductions * (c.branch_not_taken + c.alu)   # blt falls through, sub
        + (total_inner - reductions) * c.branch_taken  # blt taken (skip sub)
        + (total_inner - code.n) * c.branch_taken      # inner loop-back
        + code.n * c.branch_not_taken                  # inner exit
        + code.n * (3 * c.alu)                         # addi/addi/li NBITS
        + (code.n - 1) * c.branch_taken + c.branch_not_taken
        + c.alu  # li a0 + ecall accounting
        + c.alu
    )
    return KernelValidation(
        name="ct_syndromes",
        iss_cycles=cpu.cycles,
        predicted_cycles=predicted,
        functional_ok=functional_ok,
    )


def run_all() -> list[KernelValidation]:
    """Every validation kernel (used by the validation benchmark)."""
    return [
        validate_modq_kernel(use_ise=True),
        validate_modq_kernel(use_ise=False),
        validate_mul_ter_kernel(),
        validate_sha256_kernel(),
        validate_modadd_kernel(),
        validate_chien_kernel(),
        validate_syndrome_kernel(),
    ]
