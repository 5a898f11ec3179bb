"""RISCY-style cycle cost model.

The paper's platform is PULPino's RISCY: a 4-stage in-order core
(IF/ID/EX/WB).  The ISS charges per-instruction cycle costs that
approximate that pipeline:

* simple ALU ops, LUI/AUIPC and single-cycle custom ops retire at 1
  cycle (full forwarding, no stalls);
* loads take 2 cycles (the data interface inserts one wait state, the
  common case on PULPino's shared TCDM) and stores 1;
* taken branches and jumps flush the front-end (2 flush cycles on a
  4-stage core); not-taken branches cost 1;
* RV32M multiplies are single-cycle (RISCY's fast multiplier);
  divisions/remainders use the serial divider (bit-per-cycle class,
  modelled at a flat 35);
* multi-cycle PQ instructions stall the EX stage until the accelerator
  reports done, so their cost is 1 + busy cycles (the busy count comes
  from the cycle-accurate unit models).

The same constants price the *operation counts* recorded by the
annotated software implementations (:mod:`repro.cosim.costs`), so the
analytical model and the ISS agree by construction; the validation
benchmark (`benchmarks/test_validation_iss.py`) checks that they agree
in practice on real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RiscyCostModel:
    """Per-instruction cycle costs of the RISCY approximation."""

    alu: int = 1
    load: int = 2
    store: int = 1
    branch_taken: int = 3
    branch_not_taken: int = 1
    jump: int = 3
    mul: int = 1
    div: int = 35
    csr: int = 1
    pq_issue: int = 1  # a PQ instruction's own EX cycle; busy adds on top

    def branch(self, taken: bool) -> int:
        """Cycle cost of a conditional branch by outcome."""
        return self.branch_taken if taken else self.branch_not_taken


#: The default model used by the ISS and the analytical cost layer.
DEFAULT_COST_MODEL = RiscyCostModel()
