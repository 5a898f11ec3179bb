#!/usr/bin/env python3
"""LAC decryption running as machine code on the instruction-set simulator.

The deepest demo in the repository: a message is encrypted with the
Python library, then the decryption front-end — u*s through the MUL TER
transfer protocol, noise subtraction through pq.modq, branchless
threshold decoding — executes as ONE RISC-V program on the
instruction-set simulator, self-measured with rdcycle, and the
recovered codeword bits are fed back into the Python BCH decoder to
complete the plaintext recovery.

Run:  python examples/on_target_decrypt.py
"""

import numpy as np

from repro.bitutils import bits_to_bytes
from repro.cosim.decrypt_kernel import run_decrypt_kernel
from repro.lac import LAC_128
from repro.lac.pke import LacPke


def main() -> None:
    print("=" * 64)
    print("LAC-128 decryption on the RISC-V simulator")
    print("=" * 64 + "\n")

    print("1. Encrypting with the Python library, decrypting on-target...")
    result = run_decrypt_kernel(seed=2024)
    print(f"   machine code retired {result.instructions:,} instructions "
          f"in {result.iss_cycles:,} cycles")
    print(f"   (self-measured via rdcycle: {result.self_measured_cycles:,})")
    print(f"   hard bits match the Python codec: {result.matches_codec}")

    print("\n2. Completing the decryption: BCH decode of the on-target bits")
    pke = LacPke(LAC_128)
    decode = pke.codec.ct_decoder.decode(result.hard_bits.copy())
    print(f"   BCH corrected {decode.errors_found} channel error(s); "
          f"success = {decode.success}")
    message = bits_to_bytes(decode.message)
    rng = np.random.default_rng(2024)
    original = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
    print(f"   recovered plaintext matches: {message == original}")

    print("\n3. What the accelerator bought (same data path, by the numbers):")
    software_mult = 512 * 512 * 9
    print(f"   software u*s multiplication alone : {software_mult:>9,} cycles")
    print(f"   whole on-target decrypt front-end : {result.iss_cycles:>9,} cycles")
    print(f"   -> {software_mult / result.iss_cycles:.0f}x before the BCH decoder runs")


if __name__ == "__main__":
    main()
