"""Flat little-endian memory for the instruction-set simulator."""

from __future__ import annotations


class MemoryError_(Exception):
    """Out-of-range or misaligned access."""


class Memory:
    """A flat byte-addressable RAM (little-endian, like PULPino's TCDM)."""

    def __init__(self, size: int = 1 << 20) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.data = bytearray(size)

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise MemoryError_(
                f"access of {width} bytes at {address:#x} outside "
                f"memory of {self.size:#x} bytes"
            )

    # ------------------------------------------------------------------

    def load(self, address: int, width: int) -> int:
        """Little-endian load of ``width`` bytes."""
        self._check(address, width)
        return int.from_bytes(self.data[address : address + width], "little")

    def store(self, address: int, value: int, width: int) -> None:
        """Little-endian store of the low ``width`` bytes of ``value``."""
        self._check(address, width)
        self.data[address : address + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little"
        )

    # convenience accessors -------------------------------------------

    def load_word(self, address: int) -> int:
        """32-bit load."""
        return self.load(address, 4)

    def store_word(self, address: int, value: int) -> None:
        """32-bit store."""
        self.store(address, value, 4)

    def write_bytes(self, address: int, blob: bytes) -> None:
        """Bulk image write (program loading, test preloads)."""
        self._check(address, len(blob))
        self.data[address : address + len(blob)] = blob

    def read_bytes(self, address: int, length: int) -> bytes:
        """Bulk read (result extraction)."""
        self._check(address, length)
        return bytes(self.data[address : address + length])
