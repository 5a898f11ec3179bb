"""Operation counting used for cycle estimation.

The paper's evaluation (Tables I and II) is entirely about *cycle
counts* on a RISC-V core.  We cannot run the authors' compiled C code,
so the cycle-annotated implementations in this repository count the
operations they actually execute — field multiplications, branches,
loads, loop iterations — and the co-design layer
(:mod:`repro.cosim.costs`) maps operation counts to RISCY-model cycles.

Crucially the counts are *recorded during execution*, so data-dependent
control flow (the timing leak of Table I) produces data-dependent
counts without any hard-coding.  How a routine charges follows its
schedule: a loop whose iteration counts the parameters alone fix (the
constant-time BCH decoder, the reference ternary multiplication)
computes its values on an array engine and charges each phase once,
``count(op, n)`` per op; a data-dependent loop (the fixed-weight
sampler's draws) charges per draw.  Each bulk-charged routine keeps its
per-iteration loop as the golden model, a function of its own that the
test suite calls (``ConstantTimeBCHDecoder._decode_scalar``,
``IseBchDecoder._chien_scalar``, ``_ternary_mul_loop``,
``_sample_fixed_weight_loop``, ``_gen_a_loop``) and holds the routine
equal to, phase by phase.

Operation names are free-form strings; the conventional ones are listed
in :data:`CONVENTIONAL_OPS`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

#: Conventional operation names charged by annotated implementations.
#: The cost model assigns a per-operation cycle cost to each.
CONVENTIONAL_OPS = (
    "gf_mul_table",  # GF(2^9) mult via log/antilog tables (branchy fast path)
    "gf_mul_ct",     # GF(2^9) mult via constant-time shift-and-add in SW
    "gf_add",        # GF(2^9) addition (XOR)
    "branch",        # conditional branch evaluated
    "load",          # memory word load
    "store",         # memory word store
    "alu",           # simple integer ALU op (add/sub/shift/logic)
    "mul",           # integer multiply (RV32M)
    "div",           # integer divide / remainder (RV32M)
    "modq",          # reduction modulo q=251 in software
    "loop",          # loop-bookkeeping overhead per iteration
    "call",          # function call + return overhead
    "sha256_block",  # one SHA-256 compression in software
    "pq_issue",      # one custom PQ instruction issued (ISE path)
    "pq_busy",       # one stall cycle waiting on a PQ accelerator
)


class OpCounter:
    """A hierarchical counter of executed operations.

    Operations are attributed to the currently active *phase* (e.g.
    ``"syndrome"``, ``"error_locator"``, ``"chien"``), mirroring the
    per-phase breakdown of Table I.  Counts outside any phase go to the
    ``"_top"`` phase.

    The counter is deliberately permissive about operation names so
    that new annotated code does not need central registration; the
    cost model raises on names it has no cost for, which catches typos
    at evaluation time.
    """

    def __init__(self) -> None:
        self.phases: dict[str, Counter] = {"_top": Counter()}
        self._stack: list[str] = ["_top"]

    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all counts inside the ``with`` block to ``name``."""
        self.phases.setdefault(name, Counter())
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def count(self, op: str, n: int = 1) -> None:
        """Record ``n`` occurrences of operation ``op`` in the active phase."""
        self.phases[self._stack[-1]][op] += n

    # ------------------------------------------------------------------

    def totals(self) -> Counter:
        """Aggregate counts across all phases."""
        total: Counter = Counter()
        for counts in self.phases.values():
            total.update(counts)
        return total

    def phase_counts(self, name: str) -> Counter:
        """Counts recorded in one phase (empty counter if never entered)."""
        return self.phases.get(name, Counter())

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's phases into this one."""
        for name, counts in other.phases.items():
            self.phases.setdefault(name, Counter()).update(counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        phases = {k: dict(v) for k, v in self.phases.items() if v}
        return f"OpCounter({phases})"


class NullCounter(OpCounter):
    """A counter that discards everything (zero-overhead-ish fast path).

    Annotated implementations accept ``counter=None`` and substitute
    this singleton so the hot path stays a single no-op method call.
    """

    def count(self, op: str, n: int = 1) -> None:
        """Discard the count (the zero-overhead fast path)."""
        pass

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """No-op phase context."""
        yield


#: Shared do-nothing counter.
NULL_COUNTER = NullCounter()


def ensure_counter(counter: OpCounter | None) -> OpCounter:
    """Return ``counter`` or the shared null counter."""
    return counter if counter is not None else NULL_COUNTER
