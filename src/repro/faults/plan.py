"""Deterministic, seeded fault plans for chaos-testing the KEM service.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules, each bound
to one injection *site* and one fault *kind*, plus a seed.  The serving
stack consults the plan at well-defined points (sites) and, when a rule
fires, perturbs its behaviour accordingly:

========================  =====================================================
site                      kinds that make sense there
========================  =====================================================
``transport.read``        ``delay`` (hold the frame), ``drop`` (reset the
                          connection), ``truncate`` (mid-frame EOF),
                          ``corrupt`` (flip a framing byte so the frame is
                          rejected — payload bytes are never touched, so a
                          corrupted request can never execute with altered
                          inputs)
``transport.write``       ``delay``, ``drop`` (close before responding),
                          ``truncate`` (half a response frame, then close)
``kernel``                ``stall`` (sleep inside the batch worker),
                          ``raise`` (abort the batch with
                          :class:`InjectedFault` → ``INTERNAL`` responses)
``admission``             ``busy`` (forced ``BUSY`` reject), ``timeout``
                          (forced ``TIMEOUT`` reject)
``backend``               ``crash`` (kill one execution-backend worker
                          process before the batch runs; a counted
                          no-op on backends without killable workers)
========================  =====================================================

Determinism: every site gets its **own** ``random.Random`` stream
derived from ``(seed, site)``, so the decision sequence at each site is
a pure function of the seed and the number of draws at that site —
independent of how draws at other sites interleave.  Two runs with the
same seed and the same per-site traffic see identical fault sequences.

Accounting: every fired fault is counted in :attr:`FaultPlan.fired`
*and* reported to the plan's :attr:`~FaultPlan.observer` (the service
installs its metrics recorder there), from the same locked region — the
two tallies cannot diverge, which is what lets the chaos suite assert
that ``/metrics`` accounts for every injected fault.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import InjectedFault
from repro.trace import annotate

__all__ = [
    "ALL_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "random_plan",
]

#: Injection sites understood by the serving stack.
SITE_TRANSPORT_READ = "transport.read"
SITE_TRANSPORT_WRITE = "transport.write"
SITE_KERNEL = "kernel"
SITE_ADMISSION = "admission"
SITE_BACKEND = "backend"

# per-site RNG streams key on the site name, so adding or removing a
# site cannot shift any other site's decision sequence for a given seed
ALL_SITES = (
    SITE_TRANSPORT_READ,
    SITE_TRANSPORT_WRITE,
    SITE_KERNEL,
    SITE_ADMISSION,
    SITE_BACKEND,
)

#: Fault kinds (free-form strings; these are the ones the stack implements).
KIND_DELAY = "delay"
KIND_DROP = "drop"
KIND_TRUNCATE = "truncate"
KIND_CORRUPT = "corrupt"
KIND_STALL = "stall"
KIND_RAISE = "raise"
KIND_BUSY = "busy"
KIND_TIMEOUT = "timeout"
KIND_CRASH = "crash"


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where, what, how often, and for how long.

    ``probability`` is the per-draw chance of firing; ``max_fires``
    caps the total number of fires (``None`` = unlimited) — a rule with
    ``probability=1.0, max_fires=2`` is a deterministic two-request
    fault window.  ``delay_s`` parameterizes ``delay``/``stall``.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_fires: int | None = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be non-negative")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass
class _Armed:
    """Mutable per-plan state of one spec (remaining fire budget)."""

    spec: FaultSpec
    remaining: int | None = field(default=None)


class FaultPlan:
    """A seeded, reproducible schedule of faults for the serving stack.

    Thread-safe: transport sites draw on the event loop while ``kernel``
    draws on executor threads.  :meth:`draw` returns the
    :class:`FaultSpec` that fired (or ``None``); the caller then applies
    the fault — the plan itself never sleeps, raises or touches sockets.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._armed: list[_Armed] = []
        self._rngs: dict[str, random.Random] = {}
        #: fires per ``(site, kind)`` — compare against service metrics.
        self.fired: Counter[tuple[str, str]] = Counter()
        #: called as ``observer(site, kind)`` under the plan lock on
        #: every fire; the service points this at its metrics recorder.
        self.observer: Callable[[str, str], None] | None = None
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: FaultSpec) -> FaultPlan:
        """Arm one more rule; returns ``self`` for chaining."""
        with self._lock:
            self._armed.append(_Armed(spec, spec.max_fires))
        return self

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
        return rng

    def draw(self, site: str) -> FaultSpec | None:
        """One decision at ``site``: the spec that fired, or ``None``.

        At most one rule fires per draw (the first armed rule for the
        site, in insertion order, whose coin toss succeeds).
        """
        with self._lock:
            rng = self._rng(site)
            for armed in self._armed:
                if armed.spec.site != site:
                    continue
                if armed.remaining == 0:
                    continue
                if armed.spec.probability < 1.0 and (
                    rng.random() >= armed.spec.probability
                ):
                    continue
                if armed.remaining is not None:
                    armed.remaining -= 1
                self.fired[site, armed.spec.kind] += 1
                if self.observer is not None:
                    self.observer(site, armed.spec.kind)
                # tag whatever span covers this region (a no-op when
                # tracing is off or the site is outside any span)
                annotate(fault_site=site, fault_kind=armed.spec.kind)
                return armed.spec
        return None

    def total_fired(self) -> int:
        """Total faults fired so far, across all sites and kinds."""
        with self._lock:
            return sum(self.fired.values())

    def has_site(self, site: str) -> bool:
        """Whether any rule (fired-out or not) targets ``site``."""
        with self._lock:
            return any(armed.spec.site == site for armed in self._armed)


def random_plan(
    seed: int,
    intensity: float = 0.05,
    stall_s: float = 0.005,
    delay_s: float = 0.002,
) -> FaultPlan:
    """A randomized-but-reproducible plan covering every fault site.

    The workhorse of the chaos suite: ``intensity`` scales the per-draw
    probabilities, and a ``random.Random(seed)`` perturbs each rule's
    probability so different seeds exercise different mixes.  The same
    seed always yields the same plan *and* (via :class:`FaultPlan`
    seeding) the same decision sequences.
    """
    rng = random.Random(seed)

    def p(scale: float = 1.0) -> float:
        return min(1.0, intensity * scale * (0.5 + rng.random()))

    # ``p()`` consumes ``rng`` in list order: a new spec goes last, or
    # every later spec's per-seed probability shifts
    specs = [
        FaultSpec(SITE_TRANSPORT_READ, KIND_DELAY, p(), delay_s=delay_s),
        FaultSpec(SITE_TRANSPORT_READ, KIND_CORRUPT, p()),
        FaultSpec(SITE_TRANSPORT_READ, KIND_TRUNCATE, p(0.5)),
        FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, p(0.5)),
        FaultSpec(SITE_TRANSPORT_WRITE, KIND_DELAY, p(), delay_s=delay_s),
        FaultSpec(SITE_TRANSPORT_WRITE, KIND_TRUNCATE, p(0.5)),
        FaultSpec(SITE_TRANSPORT_WRITE, KIND_DROP, p(0.5)),
        FaultSpec(SITE_KERNEL, KIND_STALL, p(), delay_s=stall_s),
        FaultSpec(SITE_KERNEL, KIND_RAISE, p()),
        FaultSpec(SITE_ADMISSION, KIND_BUSY, p(2.0)),
        FaultSpec(SITE_ADMISSION, KIND_TIMEOUT, p()),
        FaultSpec(SITE_BACKEND, KIND_CRASH, p(0.25)),
    ]
    return FaultPlan(specs, seed=seed)
