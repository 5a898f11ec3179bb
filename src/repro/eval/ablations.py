"""Design-choice ablations (Sec. IV-A's trade-off discussion).

The paper fixes the MUL TER unit at length 512 as "a good trade-off
between performance and area", noting that a larger unit would not
help much because multiplication is already faster than polynomial
generation.  This module sweeps the unit length and quantifies both
claims:

* cycles for a full LAC multiplication at each length (n = 512 via a
  direct run or splitting; n = 1024 via one/two split levels);
* LUT/register cost of the unit at each length;
* the "already faster than GenA" crossover check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cosim.accelerated import IseMultiplier
from repro.cosim.costs import ISE_COSTS, price
from repro.cosim.protocol import CycleModel
from repro.hw.area import AreaModel
from repro.hw.mul_ter import MulTerUnit
from repro.lac.params import LAC_128, LAC_192, LacParams
from repro.metrics import OpCounter
from repro.ring.ternary import TernaryPoly


@dataclass(frozen=True)
class MulTerDesignPoint:
    """One point of the length sweep."""

    length: int
    luts: int
    registers: int
    cycles_n512: int
    cycles_n1024: int


def _single_transaction_cycles(unit_length: int) -> int:
    """Cycles for one full transaction of a length-``unit_length`` unit."""
    rng = np.random.default_rng(3)
    counter = OpCounter()
    ternary = rng.integers(-1, 2, unit_length).astype(np.int8)
    general = rng.integers(0, 251, unit_length).astype(np.int64)
    IseMultiplier(MulTerUnit(unit_length)).mul512(ternary, general, True, counter)
    return price(counter, ISE_COSTS)


def _transaction_cycles(unit_length: int, operand_length: int) -> int:
    """Cycles for multiplying length-``operand_length`` ring elements.

    * operand == unit: a single transaction (the wrapped convolution is
      supported natively).
    * operand < unit: still one full transaction — the operands are
      zero-padded and the unit computes the wrap-free product, which a
      short software pass folds back by x^m + 1.
    * operand > unit: the generalized Algorithm 1/2 split.  Because the
      unit only reduces by x^L +/- 1, pieces must be L/2 long so their
      wrap-free products fit; (2m/L)^2 transactions plus per-level
      recombination loops.  For the paper's (L=512, m=1024) point the
      real annotated driver is measured instead of estimated.
    """
    if operand_length == unit_length:
        return _single_transaction_cycles(unit_length)
    if operand_length < unit_length:
        fold = operand_length * 6  # software reduction by x^m + 1
        return _single_transaction_cycles(unit_length) + fold
    if unit_length == 512 and operand_length == 1024:
        rng = np.random.default_rng(3)
        counter = OpCounter()
        multiplier = IseMultiplier()
        ternary = TernaryPoly(rng.integers(-1, 2, operand_length).astype(np.int8))
        general = rng.integers(0, 251, operand_length).astype(np.int64)
        multiplier(LAC_192.ring, ternary, general, counter)
        return price(counter, ISE_COSTS)
    import math

    pieces = 2 * operand_length // unit_length
    levels = int(math.log2(pieces))
    transactions = pieces * pieces
    recombination = levels * operand_length * 35  # measured on the 512/1024 point
    return transactions * _single_transaction_cycles(unit_length) + recombination


def sweep_mul_ter_lengths(
    lengths: tuple[int, ...] = (256, 512, 1024)
) -> list[MulTerDesignPoint]:
    """The performance/area trade-off behind the paper's length-512 pick."""
    area_model = AreaModel()
    points = []
    for length in lengths:
        estimate = area_model.estimate(MulTerUnit(length).inventory())
        cycles_512 = _transaction_cycles(length, max(length, 512))
        if length >= 1024:
            cycles_1024 = _transaction_cycles(length, length)
        else:
            cycles_1024 = _transaction_cycles(length, 1024)
        points.append(
            MulTerDesignPoint(
                length=length,
                luts=estimate.luts,
                registers=estimate.registers,
                cycles_n512=cycles_512,
                cycles_n1024=cycles_1024,
            )
        )
    return points


@dataclass(frozen=True)
class CrossoverCheck:
    """The Sec. IV-A claim: accelerated mult < polynomial generation."""

    scheme: str
    multiplication: int
    gen_a: int
    sample_poly: int

    @property
    def mult_is_cheapest(self) -> bool:
        return self.multiplication < min(self.gen_a, self.sample_poly)


def generation_crossover(params: LacParams = LAC_128) -> CrossoverCheck:
    """Verify the accelerated multiplication sits below GenA/Sample."""
    kernels = CycleModel(params, "ise").measure_kernels()
    return CrossoverCheck(
        scheme=params.name,
        multiplication=kernels.multiplication,
        gen_a=kernels.gen_a,
        sample_poly=kernels.sample_poly,
    )


@dataclass(frozen=True)
class ProtocolDesignPoint:
    """Protocol totals for one (scheme, unit length) pair."""

    scheme: str
    unit_length: int
    luts: int
    protocol_total: int
    multiplication: int


def protocol_level_sweep(
    params_list: tuple[LacParams, ...] = (LAC_128,),
    lengths: tuple[int, ...] = (256, 512, 1024),
) -> list[ProtocolDesignPoint]:
    """The MUL TER ablation at protocol level.

    Runs the full ISE-profile protocol with the unit re-sized (the
    generalized splitting handles every power-of-two ratio), giving
    the end-to-end cost of each design point — the number a designer
    actually trades against the LUT count.
    """
    area_model = AreaModel()
    points = []
    for length in lengths:
        luts = area_model.estimate(MulTerUnit(length).inventory()).luts
        for params in params_list:
            row = CycleModel(params, "ise", mul_ter_length=length).measure_protocol()
            points.append(ProtocolDesignPoint(
                scheme=params.name,
                unit_length=length,
                luts=luts,
                protocol_total=row.total,
                multiplication=row.kernels.multiplication,
            ))
    return points


# ---------------------------------------------------------------------------
# future work 1: swap the SHA256 accelerator for a Keccak core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeccakFutureWork:
    """Quantification of the paper's SHA256-to-Keccak future work."""

    scheme: str
    gen_a_sha256: int
    gen_a_keccak: int
    sample_sha256: int
    sample_keccak: int
    #: extra accelerator area the swap costs (LUTs), Table III scale
    area_delta_luts: int

    @property
    def gen_a_speedup(self) -> float:
        return self.gen_a_sha256 / self.gen_a_keccak

    @property
    def sample_speedup(self) -> float:
        return self.sample_sha256 / self.sample_keccak


def keccak_generation_ablation(params: LacParams = LAC_128) -> KeccakFutureWork:
    """GenA / Sample-poly with the Keccak core instead of SHA256.

    The hashing itself collapses (one 168-byte-rate permutation per
    ~5 SHA-256 blocks, 24 busy clocks vs. 65), but the per-byte stream
    management of the LAC reference wrapper survives the swap — which
    is why even this future-work upgrade moves the generation kernels
    only modestly, echoing the paper's own SHA256 observation.
    """
    from repro.cosim.costs import ISE_COSTS, ISE_KECCAK_COSTS, CycleCosts, price
    from repro.hashes.keccak import ShakePrng
    from repro.hashes.prng import Sha256Prng
    from repro.hw.area import AreaModel
    from repro.hw.keccak_accel import KeccakUnit
    from repro.hw.sha256_accel import Sha256Unit
    from repro.lac.sampling import gen_a, sample_ternary_fixed_weight
    from repro.metrics import OpCounter

    seed = bytes(32)

    def measure(
        prng_cls: type[Sha256Prng] | type[ShakePrng], costs: CycleCosts
    ) -> tuple[int, int]:
        gen_counter = OpCounter()
        gen_a(seed, params, gen_counter, prng=prng_cls(seed, counter=gen_counter))
        sample_counter = OpCounter()
        sample_ternary_fixed_weight(
            prng_cls(seed, counter=sample_counter), params, sample_counter
        )
        return price(gen_counter, costs), price(sample_counter, costs)

    gen_sha, sample_sha = measure(Sha256Prng, ISE_COSTS)
    gen_keccak, sample_keccak = measure(ShakePrng, ISE_KECCAK_COSTS)

    area = AreaModel()
    delta = (
        area.estimate(KeccakUnit().inventory()).luts
        - area.estimate(Sha256Unit().inventory()).luts
    )
    return KeccakFutureWork(
        scheme=params.name,
        gen_a_sha256=gen_sha,
        gen_a_keccak=gen_keccak,
        sample_sha256=sample_sha,
        sample_keccak=sample_keccak,
        area_delta_luts=delta,
    )


@dataclass(frozen=True)
class CoefficientWidthPoint:
    """Ternary-multiplier area at one coefficient width."""

    q: int
    width_bits: int
    luts: int
    registers: int


def coefficient_width_ablation(
    moduli: tuple[int, ...] = (251, 3329, 12289),
    length: int = 512,
) -> list[CoefficientWidthPoint]:
    """Why q = 251: the ternary multiplier's area vs. coefficient width.

    The paper's Sec. I argument — the BCH code buys "polynomials with
    small single-byte coefficients" — has a hardware payoff: every MAU
    lane's adders, muxes and registers scale with the coefficient
    width.  This sweep rebuilds the MUL TER inventory at the widths a
    Kyber-like (q = 3329, 12 bits) or NewHope-like (q = 12289, 14 bits)
    modulus would force.
    """
    from repro.hw.area import AreaModel
    from repro.hw.common import ComponentInventory
    from repro.hw.mau import ModularArithmeticUnit

    model = AreaModel()
    points = []
    for q in moduli:
        width = (q - 1).bit_length()
        mau = ModularArithmeticUnit(q=q, width=width)
        lanes = mau.inventory().scaled(length)
        storage = ComponentInventory(
            flipflops=width * length + width * length + 2 * length
        )
        sign_muxes = ComponentInventory(mux_bits=2 * length, comparator_bits=10)
        estimate = model.estimate(lanes + storage + sign_muxes)
        points.append(CoefficientWidthPoint(
            q=q, width_bits=width, luts=estimate.luts, registers=estimate.registers
        ))
    return points


# ---------------------------------------------------------------------------
# future work 2: Karatsuba instead of the four-way split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KaratsubaAblation:
    """Quantification of the Sec. IV-A Karatsuba discussion."""

    n: int
    ternary_schoolbook_cycles: int
    karatsuba_software_cycles: int
    base_mults_schoolbook: int
    base_mults_karatsuba: int
    #: sub-multiplications per length-1024 product: Eq. (2) needs 4 per
    #: level (16 total), Karatsuba 3 per level (9 total)
    split_products_plain: int = 16
    split_products_karatsuba: int = 9


def karatsuba_ablation(n: int = 512) -> KaratsubaAblation:
    """Software Karatsuba vs. the ternary schoolbook schedule.

    Karatsuba wins on multiplication counts, but its sub-operands
    (a^l + a^h) are no longer ternary — coefficients land in {-2..2} —
    so the MUL TER adder/subtractor array cannot execute them; a
    Karatsuba accelerator needs general multipliers (DSPs), which is
    why the paper defers it.
    """
    import numpy as np

    from repro.cosim.costs import REFERENCE_COSTS, price
    from repro.metrics import OpCounter
    from repro.ring.karatsuba import base_multiplications, karatsuba_ring_mul
    from repro.ring.poly import PolyRing
    from repro.ring.ternary import TernaryPoly, ternary_mul

    rng = np.random.default_rng(11)
    ring = PolyRing(n)
    general_a = ring.random(rng)
    general_b = ring.random(rng)
    ternary = TernaryPoly(rng.integers(-1, 2, n).astype(np.int8))

    ternary_counter = OpCounter()
    ternary_mul(ring, ternary, general_a, ternary_counter)
    karatsuba_counter = OpCounter()
    karatsuba_ring_mul(ring, general_a, general_b, karatsuba_counter)

    return KaratsubaAblation(
        n=n,
        ternary_schoolbook_cycles=price(ternary_counter, REFERENCE_COSTS),
        karatsuba_software_cycles=price(karatsuba_counter, REFERENCE_COSTS),
        base_mults_schoolbook=n * n,
        base_mults_karatsuba=base_multiplications(n),
    )
