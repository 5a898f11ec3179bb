"""The SHA256 hardware accelerator model.

The paper reuses the SHA256 core of the authors' earlier NTRU work
[7]; its role here is to back the polynomial-generation kernels (GenA
and Sample poly).  The model performs one compression per activation
with the canonical schedule of an iterative SHA-256 core: 64 round
clocks plus one state-update clock.  I/O goes through the pq.sha256
instruction (Sec. V): rs1 carries input bytes, rs2 the write address
and the configuration signals (generate-hash, reset-internal-state).

The functional datapath reuses :func:`repro.hashes.sha256.compress`,
so the unit is bit-exact against the software implementation by
construction — the tests additionally check it against ``hashlib``.
"""

from __future__ import annotations

from repro.hashes.sha256 import IV, compress, pad
from repro.hw.common import ClockedUnit, ComponentInventory

#: Clocks per compression: 64 rounds + 1 final state addition.
COMPRESSION_CYCLES = 65
#: Input bytes accepted per pq.sha256 transfer (packed into rs1).
BYTES_PER_TRANSFER = 4
#: Digest bytes returned per read transfer (packed into rd).
DIGEST_BYTES_PER_TRANSFER = 4


class Sha256Unit(ClockedUnit):
    """Cycle-accurate model of the SHA256 accelerator."""

    def __init__(self) -> None:
        super().__init__()
        self.state = IV
        self.block = bytearray(64)
        self.message_length = 0

    def _tick(self) -> None:
        pass  # cycle accounting only; the datapath advances per operation

    # ------------------------------------------------------------------

    def reset_state(self) -> None:
        """The rs2 reset-internal-state configuration signal."""
        self.state = IV
        self.message_length = 0
        self.tick()

    def write_bytes(self, address: int, data: bytes) -> None:
        """One input transfer: up to 4 bytes into the block buffer."""
        if len(data) > BYTES_PER_TRANSFER:
            raise ValueError("at most 4 bytes per transfer")
        if address < 0 or address + len(data) > 64:
            raise ValueError("transfer exceeds the 64-byte block buffer")
        self.block[address : address + len(data)] = data
        self.tick()

    def generate_hash(self) -> None:
        """The generate-hash signal: one compression of the block buffer."""
        self.state = compress(self.state, bytes(self.block))
        self.message_length += 64
        self.tick(COMPRESSION_CYCLES)

    def read_digest_word(self, index: int) -> bytes:
        """One output transfer: digest word ``index`` (0..7)."""
        if not 0 <= index < 8:
            raise ValueError("digest word index must be in 0..7")
        self.tick()
        return self.state[index].to_bytes(4, "big")

    # ------------------------------------------------------------------

    def digest_message(self, message: bytes) -> bytes:
        """Full transaction: hash an arbitrary message (with FIPS padding).

        Drives the transfer protocol exactly as the software wrapper
        would: 16 input transfers and one compression per block, then
        8 digest reads.
        """
        self.reset_state()
        padded = message + pad(len(message))
        for block_start in range(0, len(padded), 64):
            block = padded[block_start : block_start + 64]
            for offset in range(0, 64, BYTES_PER_TRANSFER):
                self.write_bytes(offset, block[offset : offset + BYTES_PER_TRANSFER])
            self.generate_hash()
        return b"".join(self.read_digest_word(i) for i in range(8))

    # ------------------------------------------------------------------

    @property
    def cycles_per_block(self) -> int:
        """Busy clocks per compression (excluding I/O transfers)."""
        return COMPRESSION_CYCLES

    def inventory(self) -> ComponentInventory:
        """Iterative SHA-256 core: ~1.5k registers, ~1k LUTs (Table III).

        State: 8x32 hash value, 8x32 working variables, 16x32 message
        schedule window, 64-byte input buffer, round counter.
        """
        return ComponentInventory(
            flipflops=8 * 32 + 8 * 32 + 16 * 32 + 64 * 8 + 7 + 9,
            adder_bits=7 * 32,      # the round's carry-save/add network
            mux_bits=16 * 32 // 4,  # schedule/input selects
            # sigma functions (4 x 32 x 2 XOR3), ch/maj (7 x 32), message
            # schedule sigmas (4 x 32), K-constant injection, byte-enable
            # write decode on the 64-byte buffer and control glue
            gates=4 * 32 * 2 + 7 * 32 + 4 * 32 + 2 * 32 + 64 * 12,
            comparator_bits=7,      # round counter terminal
            notes=["iterative SHA-256 core, 65 clocks per block"],
        )
