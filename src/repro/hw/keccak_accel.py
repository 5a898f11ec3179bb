"""The Keccak accelerator model (the [8] comparison / future-work core).

Table III lists the Keccak accelerator of the NewHope co-design [8] at
10,435 LUTs and 4,225 registers — an order of magnitude more logic
than the SHA256 core, the price of its 1600-bit state.  The paper
leaves swapping LAC's SHA256 core for such a Keccak core as future
work; this model makes that trade quantifiable.

Schedule: one Keccak-f round per clock (the standard mid-range
implementation point), i.e. 24 clocks per permutation, plus word-wise
I/O through the same R-type transfer style as the other units
(4 bytes per write, rate/4 transfers to refill the absorb buffer).
"""

from __future__ import annotations

from repro.hashes.keccak import KeccakSponge, keccak_f1600
from repro.hw.common import ClockedUnit, ComponentInventory

#: Clocks per Keccak-f[1600] permutation (one round per clock).
PERMUTATION_CYCLES = 24
#: Input bytes per transfer instruction.
BYTES_PER_TRANSFER = 4


class KeccakUnit(ClockedUnit):
    """Cycle-accurate model of a SHAKE-128 accelerator."""

    def __init__(self, rate_bytes: int = 168) -> None:
        super().__init__()
        self.rate = rate_bytes
        self.state = [0] * 25
        self.block = bytearray(rate_bytes)

    def _tick(self) -> None:
        pass  # cycle accounting only; the datapath advances per operation

    # ------------------------------------------------------------------

    def reset_state(self) -> None:
        """Clear the 1600-bit state (one configuration clock)."""
        self.state = [0] * 25
        self.tick()

    def write_bytes(self, address: int, data: bytes) -> None:
        """One input transfer into the absorb buffer."""
        if len(data) > BYTES_PER_TRANSFER:
            raise ValueError("at most 4 bytes per transfer")
        if address < 0 or address + len(data) > self.rate:
            raise ValueError("transfer exceeds the rate buffer")
        self.block[address : address + len(data)] = data
        self.tick()

    def absorb_block(self) -> None:
        """XOR the buffered block into the state and permute."""
        for i in range(0, self.rate, 8):
            lane = int.from_bytes(bytes(self.block[i : i + 8]).ljust(8, b"\x00"), "little")
            self.state[i // 8] ^= lane
        self.state = keccak_f1600(self.state)
        self.tick(PERMUTATION_CYCLES)

    def squeeze_block(self) -> bytes:
        """Read the rate portion of the state, then permute."""
        out = b"".join(
            lane.to_bytes(8, "little") for lane in self.state[: (self.rate + 7) // 8]
        )[: self.rate]
        self.state = keccak_f1600(self.state)
        self.tick(PERMUTATION_CYCLES)
        return out

    # ------------------------------------------------------------------

    def shake(self, data: bytes, n: int) -> bytes:
        """Full SHAKE transaction through the transfer protocol."""
        self.reset_state()
        sponge = KeccakSponge(self.rate)
        sponge.absorb(data)
        # drive the same padding the sponge applies
        padded = bytearray(data)
        pad_start = len(data) % self.rate
        tail = bytearray(self.rate - pad_start)
        full_blocks, remainder = divmod(len(data), self.rate)
        blocks = [data[i * self.rate : (i + 1) * self.rate] for i in range(full_blocks)]
        last = bytearray(data[full_blocks * self.rate :].ljust(self.rate, b"\x00"))
        last[remainder] ^= 0x1F
        last[self.rate - 1] ^= 0x80
        blocks.append(bytes(last))
        for block in blocks:
            for offset in range(0, self.rate, BYTES_PER_TRANSFER):
                self.write_bytes(offset, block[offset : offset + BYTES_PER_TRANSFER])
            self.absorb_block()
        out = b""
        while len(out) < n:
            out += self.squeeze_block()
        return out[:n]

    # ------------------------------------------------------------------

    @property
    def cycles_per_permutation(self) -> int:
        return PERMUTATION_CYCLES

    def inventory(self) -> ComponentInventory:
        """One-round-per-clock Keccak core (Table III's [8] row scale).

        The 1600-bit state register plus a double buffer for the absorb
        path dominates the flip-flops; theta/chi/iota are wide XOR/AND
        networks (5-input parity per column, 2-gate chi per bit).
        """
        state_bits = 1600
        return ComponentInventory(
            flipflops=state_bits + 1600 + 168 * 8 // 2 + 5 + 5,  # state + shadow + buffer
            # theta: 4-gate column parity + 2-gate apply per bit; chi:
            # NOT/AND/XOR (3 gates) per bit; iota; absorb-path XORs
            # (rate bits); pi/rho are wiring in a 1-round/clock core
            gates=state_bits * 4 + state_bits * 2 + state_bits * 3 + 64 + 168 * 8,
            mux_bits=2 * state_bits,  # absorb/squeeze/bypass path selects
            adder_bits=0,
            comparator_bits=5,    # round counter terminal
            notes=["Keccak-f[1600], one round per clock"],
        )
