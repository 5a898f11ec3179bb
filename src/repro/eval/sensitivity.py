"""Sensitivity of the conclusions to the calibrated cycle prices.

The cycle model contains a handful of calibrated constants
(docs/CYCLEMODEL.md).  A reproduction whose conclusions flipped when a
calibrated constant moved 2x would be worthless — so this module
re-prices the *same recorded operation counts* under perturbed prices
and checks that the paper's headline structure survives:

* the ISE speedup stays large (the accelerators win regardless);
* the constant-time BCH decoder stays several times slower than the
  submission decoder (the protection cost is real);
* the accelerated multiplication stays below polynomial generation
  (the Sec. IV-A design argument).

Because counts are recorded once and only prices change, a full sweep
over dozens of perturbations costs milliseconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cosim.costs import CycleCosts, ISE_COSTS, REFERENCE_COSTS, price
from repro.cosim.protocol import CycleModel
from repro.lac.params import LAC_128, LacParams
from repro.metrics import OpCounter

#: The calibrated prices worth stress-testing (architectural prices are
#: fixed by the RISCY model and validated on the ISS).
CALIBRATED_PARAMETERS = (
    "prng_byte",
    "sha256_block",
    "gf_mul_ct",
    "gf_mul_table",
    "modq",
    "call",
)


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbation of one calibrated price."""

    parameter: str
    factor: float
    speedup: float
    ct_overhead: float
    mult_below_generation: bool


class SensitivityAnalysis:
    """Records counts once; re-prices under perturbed cost tables."""

    def __init__(self, params: LacParams = LAC_128, seed: bytes | None = None) -> None:
        self.params = params
        baseline_model = CycleModel(params, "const_bch", seed)
        ise_model = CycleModel(params, "ise", seed)
        self._baseline_counters = self._capture(baseline_model)
        self._ise_counters = self._capture(ise_model)

        # kernel counters for the secondary claims
        self._subm_decode = CycleModel(params, "ref", seed).count_bch_decode()
        self._ct_decode = baseline_model.count_bch_decode()
        self._ise_mult = OpCounter()
        self._capture_kernel(ise_model)

    @staticmethod
    def _capture(model: CycleModel) -> list[OpCounter]:
        counters = [OpCounter(), OpCounter(), OpCounter()]
        pair = model.kem.keygen(seed=model.seed, counter=counters[0])
        enc = model.kem.encaps(
            pair.public_key, message=model.seed[:32], counter=counters[1]
        )
        model.kem.decaps(pair.secret_key, enc.ciphertext, counters[2])
        return counters

    def _capture_kernel(self, ise_model: CycleModel) -> None:
        import numpy as np

        from repro.ring.ternary import TernaryPoly

        rng = np.random.default_rng(1)
        ternary = TernaryPoly(rng.integers(-1, 2, self.params.n).astype(np.int8))
        general = rng.integers(0, self.params.q, self.params.n).astype(np.int64)
        ise_model.kem.pke.schedule.multiplier(
            self.params.ring, ternary, general, self._ise_mult
        )
        self._gen_a = OpCounter()
        from repro.lac.sampling import gen_a

        gen_a(bytes(32), self.params, self._gen_a)

    # ------------------------------------------------------------------

    def evaluate(
        self, ref_costs: CycleCosts, ise_costs: CycleCosts
    ) -> SensitivityPoint:
        """Re-price the recorded counts under one pair of cost tables."""
        baseline_total = sum(price(c, ref_costs) for c in self._baseline_counters)
        ise_total = sum(price(c, ise_costs) for c in self._ise_counters)
        speedup = baseline_total / ise_total
        ct_overhead = price(self._ct_decode, ref_costs) / price(
            self._subm_decode, ref_costs
        )
        mult_below = price(self._ise_mult, ise_costs) < price(self._gen_a, ise_costs)
        return SensitivityPoint(
            parameter="", factor=1.0, speedup=speedup,
            ct_overhead=ct_overhead, mult_below_generation=mult_below,
        )

    def sweep(
        self,
        parameters: tuple[str, ...] = CALIBRATED_PARAMETERS,
        factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0),
    ) -> list[SensitivityPoint]:
        """Perturb each calibrated price by each factor, one at a time."""
        points = []
        for parameter in parameters:
            for factor in factors:
                ref = dataclasses.replace(
                    REFERENCE_COSTS,
                    **{parameter: max(1, round(getattr(REFERENCE_COSTS, parameter) * factor))},
                )
                ise = dataclasses.replace(
                    ISE_COSTS,
                    **{parameter: max(1, round(getattr(ISE_COSTS, parameter) * factor))},
                )
                evaluated = self.evaluate(ref, ise)
                points.append(dataclasses.replace(
                    evaluated, parameter=parameter, factor=factor
                ))
        return points
