"""The MUL CHIEN Chien-search engine (Fig. 4 of the paper).

The unit holds **four** MUL GF multipliers and processes **one group**
of four error-locator terms at a time (Eq. (4) splits the locator sum
into t/4 such groups: four for t = 16, two for t = 8).  Its three
operation modes (Sec. V) are:

* load four field elements for the *left* two multipliers (the pinned
  constants alpha^{1+4j}, alpha^{2+4j} and lambdas for lanes 0-1),
* load four elements for the *right* two multipliers (lanes 2-3),
* calculate and return out_j = sum of the four products.

The feedback loop is the key optimization: after the first activation
each multiplier's output (lambda_k * alpha^{i*k}) is fed back as its
next second operand while the first operand stays pinned at alpha^k —
so a whole probe window needs only one load per group.  The software
driver iterates groups in the outer loop, accumulating the per-probe
partial sums, and combines them with lambda_0 for the root test.

Starting the window at alpha^{start} (the shortened-code windows of
Sec. IV-B) is handled by pre-scaling the loaded lambdas with
alpha^{(start-1)*k} in software, once per decode.
"""

from __future__ import annotations

from repro.gf.field import GF2m, GF512
from repro.hw.common import ClockedUnit, ComponentInventory
from repro.hw.mul_gf import MulGfUnit

#: Parallel GF multipliers instantiated in the unit (Fig. 4).
PARALLEL_MULTIPLIERS = 4
#: Extra clock for the XOR/accumulate output latch per activation.
GROUP_LATCH_CYCLES = 1
#: Field elements packed per load instruction (4 x 9 bits over rs1/rs2).
ELEMENTS_PER_TRANSFER = 4


class ChienUnit(ClockedUnit):
    """Cycle-accurate model of the Chien-search accelerator."""

    def __init__(self, field: GF2m = GF512) -> None:
        super().__init__()
        self.field = field
        self.multipliers = [MulGfUnit(field) for _ in range(PARALLEL_MULTIPLIERS)]
        #: pinned first operands (constants alpha^{k+4j})
        self.constants = [0] * PARALLEL_MULTIPLIERS
        #: second operands; feed back after each activation (loop signal)
        self.feedback = [0] * PARALLEL_MULTIPLIERS
        self._loaded_half = [False, False]

    # ------------------------------------------------------------------
    # operation modes
    # ------------------------------------------------------------------

    def load_left(self, elements: list[int]) -> None:
        """Mode 0: constants+lambdas for multiplier lanes 0 and 1."""
        self._load_half(0, elements)

    def load_right(self, elements: list[int]) -> None:
        """Mode 1: constants+lambdas for multiplier lanes 2 and 3."""
        self._load_half(1, elements)

    def _load_half(self, half: int, elements: list[int]) -> None:
        if len(elements) != ELEMENTS_PER_TRANSFER:
            raise ValueError("each load transfers exactly four field elements")
        for e in elements:
            self.field._check(e)
        base = half * 2
        self.constants[base] = elements[0]
        self.feedback[base] = elements[1]
        self.constants[base + 1] = elements[2]
        self.feedback[base + 1] = elements[3]
        self._loaded_half[half] = True
        self.tick()  # one clock per buffered transfer

    def step(self) -> int:
        """Mode 2: one activation — four parallel products, XOR-summed.

        Returns out_j for the current probe and advances the feedback
        registers.  Cycle cost: 9 multiplier clocks + 1 latch clock.
        """
        if not all(self._loaded_half):
            raise RuntimeError("both multiplier halves must be loaded first")
        out = 0
        for lane in range(PARALLEL_MULTIPLIERS):
            product = self.multipliers[lane].multiply(
                self.constants[lane], self.feedback[lane]
            )
            self.feedback[lane] = product  # loop signal enabled
            out ^= product
        self.tick(self.multipliers[0].compute_cycles + GROUP_LATCH_CYCLES)
        return out

    # ------------------------------------------------------------------
    # software-driver helpers
    # ------------------------------------------------------------------

    @property
    def cycles_per_step(self) -> int:
        """Busy clocks per activation (excluding instruction issue)."""
        return self.multipliers[0].compute_cycles + GROUP_LATCH_CYCLES

    def group_elements(
        self, lambdas: list[int], group: int, start_exponent: int
    ) -> tuple[list[int], list[int], int]:
        """Prepare the two load transfers for group ``group``.

        Returns (left_elements, right_elements, software_gf_muls) where
        the lambdas are pre-scaled by alpha^{(start-1)k} so the first
        activation evaluates at alpha^{start}.
        """
        field = self.field
        left: list[int] = []
        right: list[int] = []
        prescale_muls = 0
        for lane in range(PARALLEL_MULTIPLIERS):
            k = group * PARALLEL_MULTIPLIERS + lane + 1
            lam = lambdas[k] if k < len(lambdas) else 0
            if start_exponent != 1:
                lam = field.mul(lam, field.alpha_pow((start_exponent - 1) * k))
                prescale_muls += 1
            target = left if lane < 2 else right
            target.append(field.alpha_pow(k))
            target.append(lam)
        return left, right, prescale_muls

    def search(
        self, lambdas: list[int], t: int, start: int, stop: int
    ) -> list[int]:
        """Full accelerated Chien search: the roots l in [start, stop].

        Functional reference for the driver loop: iterate groups in the
        outer loop (one load per group), accumulate partial sums per
        probe in software, then test lambda_0 ^ sum == 0.
        """
        if t % PARALLEL_MULTIPLIERS:
            raise ValueError("t must be a multiple of the multiplier count")
        probes = stop - start + 1
        partial = [0] * probes
        for group in range(t // PARALLEL_MULTIPLIERS):
            left, right, _ = self.group_elements(lambdas, group, start)
            self.load_left(left)
            self.load_right(right)
            for i in range(probes):
                partial[i] ^= self.step()
        lambda0 = lambdas[0] if lambdas else 0
        return [start + i for i in range(probes) if (lambda0 ^ partial[i]) == 0]

    def _tick(self) -> None:
        pass  # cycle accounting only; the datapath advances in step()

    # ------------------------------------------------------------------

    def inventory(self) -> ComponentInventory:
        """Four multipliers + operand/feedback latches + output stage.

        Matches the small footprint of Table III's "GF-Multipliers"
        row: the unit stores only one group at a time.
        """
        m = self.field.m
        multipliers = self.multipliers[0].inventory().scaled(PARALLEL_MULTIPLIERS)
        feedback_muxes = ComponentInventory(
            mux_bits=m * PARALLEL_MULTIPLIERS,  # load vs. loop selects
        )
        output = ComponentInventory(
            flipflops=m,                        # out_j latch
            gates=m * (PARALLEL_MULTIPLIERS - 1),  # XOR tree
        )
        control = ComponentInventory(flipflops=5, gates=10, comparator_bits=2)
        return multipliers + feedback_muxes + output + control
