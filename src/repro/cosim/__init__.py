"""HW/SW co-design cycle modelling (Tables I and II).

This layer turns the operation counts recorded by the annotated
implementations into RISCY-model cycle counts, for three
configurations mirroring the paper's Table II rows:

* **ref** — the LAC reference implementation on RISC-V (software
  everything, submission-style BCH decoder);
* **const_bch** — the reference with the Walters/Roy constant-time
  BCH decoder (the security baseline);
* **ise** — the paper's optimized implementation: MUL TER for all ring
  multiplications, MUL CHIEN for the Chien search, the SHA256
  accelerator behind the PRNG, and pq.modq for reductions.

Cycle counts are *measured by executing* the annotated code on real
data, so data-dependent timing (Table I) emerges from real control
flow.  Per-operation prices are calibrated once against the paper's
reference column and documented in :mod:`repro.cosim.costs`.

The cycle model is also *servable*: :class:`repro.backend.CosimBackend`
routes live KEM traffic through these annotated drivers and reproduces
the offline predictions exactly (see ``docs/COSIM.md``).
"""

from repro.cosim.accelerated import IseBchDecoder, IseMultiplier
from repro.cosim.costs import ISE_COSTS, REFERENCE_COSTS, CycleCosts, price
from repro.cosim.protocol import (
    PROFILE_TABLE,
    PROFILES,
    CycleModel,
    KernelCycles,
    Profile,
    ProtocolCycles,
)

__all__ = [
    "CycleCosts",
    "CycleModel",
    "IseBchDecoder",
    "IseMultiplier",
    "ISE_COSTS",
    "KernelCycles",
    "PROFILE_TABLE",
    "PROFILES",
    "Profile",
    "ProtocolCycles",
    "REFERENCE_COSTS",
    "price",
]
