"""ISE-accelerated implementations (the paper's "opt" rows).

Two drivers live here, both annotated with the software work a real
wrapper performs around the custom instructions:

* :class:`IseMultiplier` — ring multiplication through the MUL TER
  unit.  For n = 512 a single transaction; for n = 1024 the two-level
  polynomial splitting of Algorithms 1/2 with sixteen unit runs and
  pq.modq-assisted recombination.
* :class:`IseBchDecoder` — the constant-time BCH decode with the Chien
  search offloaded to the MUL CHIEN unit over the message window
  (Sec. IV-B): syndromes and inversion-free Berlekamp--Massey stay in
  (constant-time) software, each locator group is loaded once, and the
  per-probe partial sums are accumulated and combined in software.
"""

from __future__ import annotations

import numpy as np

from repro.bch.code import BCHCode
from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.bch.decoder import DecodeResult, _degree
from repro.bitutils import require_bits
from repro.hw.chien import PARALLEL_MULTIPLIERS, ChienUnit
from repro.hw.mul_ter import MulTerUnit
from repro.metrics import OpCounter, ensure_counter
from repro.ring.poly import PolyRing
from repro.ring.splitting import UNIT_LEN, split_mul_high
from repro.ring.ternary import TernaryPoly


class IseMultiplier:
    """Ring multiplication driver for the MUL TER accelerator.

    Defaults to the paper's length-512 unit; other power-of-two unit
    lengths are supported through the generalized splitting (the
    Sec. IV-A area/performance ablation at protocol level).
    """

    def __init__(self, unit: MulTerUnit | None = None) -> None:
        self.unit = unit or MulTerUnit(UNIT_LEN)

    # ------------------------------------------------------------------

    def mul512(
        self,
        ternary: np.ndarray,
        general: np.ndarray,
        negacyclic: bool,
        counter: OpCounter | None = None,
    ) -> np.ndarray:
        """One full unit transaction with annotated driver overhead.

        Per input transfer the wrapper loads five general and five
        ternary coefficients from byte arrays, maps the ternary values
        to their 2-bit codes, packs rs1/rs2 and issues the transfer;
        per output transfer it issues the read and stores the packed
        word.  The start instruction stalls for the unit's ``length``
        compute cycles.
        """
        counter = ensure_counter(counter)
        unit = self.unit
        with counter.phase("ise_mul512"):
            counter.count("call")
            transfers = unit.input_transfers
            counter.count("load", 10 * transfers)  # 5 general + 5 ternary lbu
            counter.count("alu", 30 * transfers)  # code mapping + rs1/rs2 packing
            counter.count("pq_issue", transfers)
            counter.count("loop", transfers)
            counter.count("pq_issue")  # start
            counter.count("alu", 2)
            counter.count("pq_busy", unit.compute_cycles)
            reads = unit.output_transfers
            counter.count("pq_issue", reads)
            counter.count("store", reads)  # one packed word per read
            counter.count("alu", reads)
            counter.count("loop", reads)
        return unit.multiply(ternary, general, negacyclic)

    # ------------------------------------------------------------------

    def __call__(
        self,
        ring: PolyRing,
        ternary: TernaryPoly,
        general: np.ndarray,
        counter: OpCounter | None = None,
    ) -> np.ndarray:
        """Multiplier strategy compatible with :class:`repro.lac.pke.LacPke`."""
        counter = ensure_counter(counter)
        length = self.unit.length
        if ring.n == length:
            return np.mod(
                self.mul512(ternary.coeffs, general, ring.negacyclic, counter),
                ring.q,
            )
        if ring.n == 2 * length == 2 * UNIT_LEN:
            # the paper's exact Algorithm 1/2 path for the 512 unit
            return split_mul_high(
                ternary,
                general,
                mul512=lambda t, g, nega: self.mul512(t, g, nega, counter),
                counter=counter,
                q=ring.q,
            )
        if ring.n > length and ring.n % length == 0:
            from repro.ring.splitting import split_mul_general

            return split_mul_general(
                ternary.coeffs,
                general,
                length,
                lambda t, g, nega: self.mul512(t, g, nega, counter),
                counter=counter,
                q=ring.q,
            )
        if ring.n < length and length % ring.n == 0:
            # zero-pad into the larger unit, positive convolution, then
            # fold by x^n + 1 in software
            padded_t = np.zeros(length, dtype=ternary.coeffs.dtype)
            padded_t[: ring.n] = ternary.coeffs
            padded_g = np.zeros(length, dtype=np.int64)
            padded_g[: ring.n] = general
            product = self.mul512(padded_t, padded_g, False, counter)
            with counter.phase("fold"):
                counter.count("loop", ring.n)
                counter.count("load", 2 * ring.n)
                counter.count("alu", ring.n)
                counter.count("modq", ring.n)
                counter.count("store", ring.n)
            full = product[: 2 * ring.n]
            return np.mod(full[: ring.n] - full[ring.n :], ring.q)
        raise ValueError(
            f"no ISE schedule for ring size {ring.n} on a "
            f"length-{length} unit"
        )


class IseBchDecoder:
    """Constant-time BCH decode with the MUL CHIEN accelerator.

    The Chien unit is clocked probe by probe (it is the hardware model);
    the software around it charges its fixed per-probe counts once per
    loop.  :meth:`_chien_scalar` is the golden per-iteration software
    loop around the unit, which the test suite holds this one to, count
    for count (the syndrome/BM half has its golden loops in
    :class:`~repro.bch.ct_decoder.ConstantTimeBCHDecoder`).
    """

    def __init__(self, code: BCHCode, unit: ChienUnit | None = None) -> None:
        if code.t % PARALLEL_MULTIPLIERS:
            raise ValueError("the Chien unit needs t divisible by 4")
        self.code = code
        self.field = code.field
        self.unit = unit or ChienUnit(code.field)
        self._software = ConstantTimeBCHDecoder(code)

    # ------------------------------------------------------------------

    def decode(
        self, received: np.ndarray, counter: OpCounter | None = None
    ) -> DecodeResult:
        """Syndromes + BM in constant-time software, Chien in hardware."""
        code = self.code
        counter = ensure_counter(counter)
        received = require_bits(received, code.n, "received")
        working = received.copy()

        locator = self._software.error_locators(working[None], counter)[0].tolist()
        flips, _ = self._chien_accelerated(working, locator, counter)

        locator_degree = _degree(locator)
        return DecodeResult(
            codeword=working,
            message=working[code.parity_bits :].copy(),
            errors_found=flips,
            success=locator_degree <= code.t and flips <= locator_degree,
            counter=counter,
        )

    # ------------------------------------------------------------------

    def _load_group(
        self, lambdas: list[int], group: int, start: int, counter: OpCounter
    ) -> None:
        """Pre-scale and load one group of four lambdas into the unit."""
        left, right, prescale = self.unit.group_elements(lambdas, group, start)
        counter.count("gf_mul_table", prescale)  # exponents are public
        counter.count("alu", 12)  # pack two load transfers
        counter.count("pq_issue", 2)
        self.unit.load_left(left)
        self.unit.load_right(right)

    def _chien_accelerated(
        self,
        working: np.ndarray,
        locator: list[int],
        counter: OpCounter,
    ) -> tuple[int, int]:
        unit = self.unit
        t = self.code.t
        start, stop = self.code.chien_window("message")
        probes = stop - start + 1
        lambdas = list(locator) + [0] * (t + 1 - len(locator))

        partial = np.zeros(probes, dtype=np.intp)
        with counter.phase("chien"):
            counter.count("call")
            for group in range(t // PARALLEL_MULTIPLIERS):
                self._load_group(lambdas, group, start, counter)
                partial ^= [unit.step() for _ in range(probes)]
                # per probe: issue, stall, then partial[i] ^= out (load,
                # xor, store) and the loop
                counter.count("pq_issue", probes)
                counter.count("pq_busy", probes * unit.cycles_per_step)
                counter.count("load", probes)
                counter.count("alu", probes)
                counter.count("store", probes)
                counter.count("loop", probes)
            # combine with lambda_0 and apply masked flips; per probe two
            # loads, xor/mask/flip/index math, a store and the loop
            is_root = (partial ^ lambdas[0]) == 0
            _, flagged, positions = self._software._chien_slices("message")
            hits = is_root[flagged]
            working[positions] ^= hits[::-1]
            counter.count("load", 2 * probes)
            counter.count("alu", 4 * probes)
            counter.count("store", probes)
            counter.count("loop", probes)
        return int(np.count_nonzero(hits)), int(np.count_nonzero(is_root))

    def _chien_scalar(
        self,
        working: np.ndarray,
        locator: list[int],
        counter: OpCounter,
    ) -> tuple[int, int]:
        """The golden loop around the unit: every software operation counted as it runs."""
        code, unit = self.code, self.unit
        t = code.t
        start, stop = code.chien_window("message")
        probes = stop - start + 1
        lambdas = list(locator) + [0] * (t + 1 - len(locator))

        partial = [0] * probes
        with counter.phase("chien"):
            counter.count("call")
            for group in range(t // PARALLEL_MULTIPLIERS):
                self._load_group(lambdas, group, start, counter)
                for i in range(probes):
                    partial[i] ^= unit.step()
                    counter.count("pq_issue")
                    counter.count("pq_busy", unit.cycles_per_step)
                    counter.count("load")  # partial[i]
                    counter.count("alu")  # xor
                    counter.count("store")
                    counter.count("loop")
            # combine with lambda_0 and apply masked flips
            flips = 0
            roots_found = 0
            for i in range(probes):
                value = lambdas[0] ^ partial[i]
                is_root = 1 if value == 0 else 0
                roots_found += is_root
                position = code.position_of_root(start + i)
                if position < code.n:
                    working[position] ^= is_root
                    flips += is_root
                counter.count("load", 2)
                counter.count("alu", 4)  # xor, mask, flip, index math
                counter.count("store")
                counter.count("loop")
        return flips, roots_found
