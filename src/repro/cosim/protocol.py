"""Protocol-level cycle measurement (Table II).

A :class:`CycleModel` instantiates one of the paper's three RISC-V
configurations and *executes* the full CCA KEM with operation counting
on deterministic data, then prices the counts:

* ``"ref"`` — reference software: O(n^2) ternary multiplication
  (full for keygen/decryption, truncated to ``v_slots`` for the v
  component, as the reference code does), submission-style BCH
  decoder, software SHA-256 and reductions;
* ``"const_bch"`` — same, with the Walters/Roy constant-time decoder
  (the paper's security baseline);
* ``"ise"`` — the optimized co-design: MUL TER transactions (with the
  Algorithm 1/2 split for n = 1024), MUL CHIEN-backed constant-time
  decoding over the message window, accelerator-priced SHA-256 and
  pq.modq reductions.

:data:`PROFILE_TABLE` is the one place that maps a profile to its
multipliers, BCH decoder and cost table; the cycle model, the cosim
backend and the evaluation modules all read it.

The kernel columns of Table II (GenA, Sample poly, Multiplication,
BCH decode) are measured standalone, exactly as the paper reports
them: one GenA call, one sampled polynomial, one full ring
multiplication, one decode.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.bch.code import BCHCode
from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.cosim.accelerated import IseBchDecoder, IseMultiplier
from repro.cosim.costs import ISE_COSTS, REFERENCE_COSTS, CycleCosts, price
from repro.hashes.prng import Sha256Prng
from repro.hw.mul_ter import MulTerUnit
from repro.lac.encoding import BchDecoder
from repro.lac.kem import LacKem
from repro.lac.params import LacParams
from repro.lac.pke import Multiplier, Schedule, VMultiplier
from repro.lac.sampling import gen_a, sample_ternary_fixed_weight
from repro.metrics import OpCounter
from repro.ring.splitting import UNIT_LEN
from repro.ring.ternary import TernaryPoly, ternary_mul, ternary_mul_truncated


@dataclass(frozen=True)
class Profile:
    """One Table II column: the counted schedule of a run, and its prices."""

    #: Builds the full ring multiplication for a MUL TER unit length.
    multiplier: Callable[[int], Multiplier]
    #: The truncated ``v`` multiplication (``None``: slice the full product).
    v_multiplier: VMultiplier | None
    #: Builds decryption's BCH decoder (also Table I's) for a code.
    decoder: Callable[[BCHCode], BchDecoder]
    #: The cycle prices of every counted operation.
    costs: CycleCosts

    def schedule(self, params: LacParams, mul_ter_length: int = UNIT_LEN) -> Schedule:
        """A fresh :class:`~repro.lac.pke.Schedule` for ``params``; the
        hardware units it drives are its own."""
        return Schedule(
            self.multiplier(mul_ter_length), self.v_multiplier, self.decoder(params.bch)
        )


def _reference_multiplier(mul_ter_length: int) -> Multiplier:
    """The reference code's O(n^2) schedule (it drives no unit)."""
    return ternary_mul


def _ise_multiplier(mul_ter_length: int) -> Multiplier:
    return IseMultiplier(MulTerUnit(mul_ter_length))


#: The three RISC-V configurations of Table II, the one place that says
#: which multiplier, BCH decoder and prices each runs with.
PROFILE_TABLE: dict[str, Profile] = {
    "ref": Profile(
        _reference_multiplier, ternary_mul_truncated, BCHDecoder, REFERENCE_COSTS
    ),
    "const_bch": Profile(
        _reference_multiplier,
        ternary_mul_truncated,
        ConstantTimeBCHDecoder,
        REFERENCE_COSTS,
    ),
    "ise": Profile(_ise_multiplier, None, IseBchDecoder, ISE_COSTS),
}

#: The profile names, in Table II's order.
PROFILES = tuple(PROFILE_TABLE)


@dataclass(frozen=True)
class KernelCycles:
    """The four bottleneck kernels (Table II's right-hand columns)."""

    gen_a: int
    sample_poly: int
    multiplication: int
    bch_decode: int


@dataclass(frozen=True)
class ProtocolCycles:
    """One Table II row."""

    scheme: str
    profile: str
    key_generation: int
    encapsulation: int
    decapsulation: int
    kernels: KernelCycles

    @property
    def total(self) -> int:
        """Sum of the three operations (the paper's speedup basis)."""
        return self.key_generation + self.encapsulation + self.decapsulation


class CycleModel:
    """Cycle measurement for one (parameter set, profile) pair.

    ``mul_ter_length`` sizes the MUL TER unit of the ``"ise"`` profile
    (the Sec. IV-A ablation); the reference profiles drive no unit.
    """

    def __init__(
        self,
        params: LacParams,
        profile: str,
        seed: bytes | None = None,
        mul_ter_length: int = UNIT_LEN,
    ) -> None:
        if profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
        self.params = params
        self.profile = profile
        self.seed = seed or bytes(range(64))
        entry = PROFILE_TABLE[profile]
        self.costs = entry.costs
        self.kem = LacKem(params, entry.schedule(params, mul_ter_length))

    # ------------------------------------------------------------------
    # kernel measurements
    # ------------------------------------------------------------------

    def _price(self, counter: OpCounter) -> int:
        return price(counter, self.costs)

    def measure_gen_a(self) -> int:
        """Cycles of one GenA call (the Table II kernel column)."""
        counter = OpCounter()
        gen_a(self.seed[:32], self.params, counter)
        return self._price(counter)

    def measure_sample_poly(self) -> int:
        """Cycles of sampling one fixed-weight polynomial."""
        counter = OpCounter()
        prng = Sha256Prng(self.seed[:32], counter=counter)
        sample_ternary_fixed_weight(prng, self.params, counter)
        return self._price(counter)

    def measure_multiplication(self) -> int:
        """One full ring multiplication (the Table II column)."""
        counter = OpCounter()
        rng = np.random.default_rng(int.from_bytes(self.seed[:4], "little"))
        ternary = TernaryPoly(rng.integers(-1, 2, self.params.n).astype(np.int8))
        general = rng.integers(0, self.params.q, self.params.n).astype(np.int64)
        self.kem.pke.schedule.multiplier(self.params.ring, ternary, general, counter)
        return self._price(counter)

    def measure_bch_decode(self, errors: int = 0) -> int:
        """One BCH decode with ``errors`` injected bit errors."""
        return self._price(self.count_bch_decode(errors))

    def count_bch_decode(self, errors: int = 0) -> OpCounter:
        """The operations of one decode by the profile's decoder, of a
        fixed codeword with ``errors`` injected bit errors."""
        code = self.params.bch
        rng = np.random.default_rng(1234)
        message = rng.integers(0, 2, code.k).astype(np.uint8)
        codeword = BCHEncoder(code).encode(message)
        if errors:
            positions = rng.choice(code.n, size=errors, replace=False)
            codeword = codeword.copy()
            codeword[positions] ^= 1
        counter = OpCounter()
        self.kem.pke.schedule.bch_decoder.decode(codeword, counter)
        return counter

    def measure_kernels(self) -> KernelCycles:
        """All four bottleneck kernel columns of Table II."""
        return KernelCycles(
            gen_a=self.measure_gen_a(),
            sample_poly=self.measure_sample_poly(),
            multiplication=self.measure_multiplication(),
            bch_decode=self.measure_bch_decode(),
        )

    # ------------------------------------------------------------------
    # protocol measurements
    # ------------------------------------------------------------------

    def measure_protocol(self) -> ProtocolCycles:
        """Run keygen/encaps/decaps with counting; price each operation."""
        kg_counter = OpCounter()
        pair = self.kem.keygen(seed=self.seed, counter=kg_counter)

        enc_counter = OpCounter()
        enc = self.kem.encaps(
            pair.public_key, message=self.seed[:32], counter=enc_counter
        )

        dec_counter = OpCounter()
        shared = self.kem.decaps(pair.secret_key, enc.ciphertext, dec_counter)
        if shared != enc.shared_secret:
            raise AssertionError(
                f"{self.params.name}/{self.profile}: decapsulation mismatch "
                "during cycle measurement"
            )

        return ProtocolCycles(
            scheme=self.params.name,
            profile=self.profile,
            key_generation=self._price(kg_counter),
            encapsulation=self._price(enc_counter),
            decapsulation=self._price(dec_counter),
            kernels=self.measure_kernels(),
        )


def speedup(baseline: ProtocolCycles, optimized: ProtocolCycles) -> float:
    """The paper's headline factor: total protocol cycles, baseline/opt."""
    return baseline.total / optimized.total
