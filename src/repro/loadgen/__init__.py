"""``repro.loadgen`` — open-loop load generation for SLO testing.

The measurement counterpart of the serving layer's SLO defenses: a
driver that offers load the way the world does (open loop — the
arrival process, not the service's speed, decides when the next
request fires) and records what actually happened to every scheduled
request, shed and hung ones included.

* :mod:`repro.loadgen.arrivals` — seeded arrival processes: Poisson,
  Markov-modulated bursts, diurnal trace replay;
* :mod:`repro.loadgen.generator` — :class:`OpenLoopLoadGen`, firing
  per-tier requests at scheduled times with a hang guard;
* :mod:`repro.loadgen.recorder` — :class:`LatencyRecorder`, exact
  percentiles over scheduled-time latencies (no coordinated omission).

``tests/test_serve_shedding.py`` combines the three into the 2x
overload check (shed, never serve late) and ``tests/test_multitenant.py``
into the multi-tenant acceptance workload; the SLO knobs they exercise
live on :class:`repro.serve.ServiceConfig`.
"""

from repro.loadgen.arrivals import (
    ArrivalProcess,
    MarkovModulatedProcess,
    PoissonProcess,
    TraceReplayProcess,
)
from repro.loadgen.generator import OpenLoopLoadGen, Send, TierSpec
from repro.loadgen.recorder import OUTCOMES, LatencyRecorder, percentile

__all__ = [
    "ArrivalProcess",
    "LatencyRecorder",
    "MarkovModulatedProcess",
    "OUTCOMES",
    "OpenLoopLoadGen",
    "PoissonProcess",
    "Send",
    "TierSpec",
    "TraceReplayProcess",
    "percentile",
]
