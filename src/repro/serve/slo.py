"""SLO defense: kernel-cost estimation and deadline shedding.

Pure, clock-free building blocks the service composes into its
overload behavior (each takes timestamps/measurements as arguments, so
unit tests drive them deterministically with fake clocks — the same
design discipline as :class:`repro.serve.scheduler.MicroBatchScheduler`):

* :class:`KernelEstimator` — an EWMA of observed batch duration per
  ``(op, parameter set)``: what one queued request will actually wait
  once its batch dispatches.  Fed from the dispatch path's own timing,
  so it works with tracing off.  Optionally seeded with per-key
  *priors* so the first request is already predicted, not guessed.
* :class:`CycleCostEstimator` — those priors, derived from the
  calibrated cycle model: predicted cycles per ``(op, parameter set)``
  (:func:`repro.backend.cosim.model_cycles`, the paper's Table II
  numbers) divided by a calibrated cycles-per-second figure.
* :func:`predicted_miss` — the shedding decision rule: a request is
  shed **before running** when ``queue_wait + kernel estimate >
  deadline``.  A request whose deadline still fits is never shed.

The serving layer's use of these — where the deadline and tier come
from on the wire, which responses a shed turns into — lives in
:mod:`repro.serve.server`; see ``docs/SERVICE.md`` for the operator
view.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lac.params import LacParams

#: Calibrated clock of the modelled core when converting cycle-model
#: predictions to seconds: a RISCY-class RV32IM at 100 MHz (the
#: FPGA-prototype ballpark of the paper's platform family).  Operators
#: serving real hardware should calibrate ``cycle_priors_hz`` so one
#: measured kernel matches its prediction; every other prior then
#: lands proportionally.
DEFAULT_CYCLE_PRIORS_HZ = 100_000_000.0


class KernelEstimator:
    """EWMAs of batch duration per ``(op, parameter set)`` key.

    :meth:`observe` is fed one ``(batch duration, operations)`` sample
    per dispatched batch; :meth:`batch_seconds` is how long a
    dispatched batch takes end to end (backend queueing included) —
    the latency a request parked behind the kernel will actually
    experience, so it is the estimate the shedding rule uses.

    Keys are opaque tuples (the service uses ``(op name, param id)``).
    A key never observed falls back to its ``priors`` entry (if one was
    seeded — see :class:`CycleCostEstimator`), then to the global EWMA
    across keys; before *any* observation or prior the estimate is
    ``None`` — the shedding rule treats that as "no prediction, admit"
    so a cold service never sheds on a guess.  Priors close the
    cold-start window: with them, the *first* request already sheds
    correctly instead of being mispredicted as free.

    Not locked: the service only touches it from the event loop.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        priors: Mapping[object, float] | None = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: per-key predicted single-operation seconds, consulted for
        #: keys with no observation yet (a key-specific calibrated
        #: prediction beats the cross-key global EWMA)
        self._priors: dict[object, float] = dict(priors or {})
        self._batch_s: dict[object, float] = {}
        self._global_batch_s: float | None = None

    def _fold(self, current: float | None, sample: float) -> float:
        if current is None:
            return sample
        return current + self.alpha * (sample - current)

    def observe(self, key: object, seconds: float, ops: int) -> None:
        """Record one dispatched batch: its wall duration and size (an
        empty batch or a negative duration is ignored)."""
        if ops < 1 or seconds < 0.0:
            return
        self._batch_s[key] = self._fold(self._batch_s.get(key), seconds)
        self._global_batch_s = self._fold(self._global_batch_s, seconds)

    def batch_seconds(self, key: object) -> float | None:
        """Expected batch duration for ``key`` (prior, then global fallback).

        Before the key's first observation the prior stands in for the
        batch estimate — the predicted cost of one operation, i.e. the
        smallest batch the key can dispatch.  Observations immediately
        shadow it.
        """
        estimate = self._batch_s.get(key)
        if estimate is not None:
            return estimate
        prior = self._priors.get(key)
        return prior if prior is not None else self._global_batch_s

    def priors(self) -> dict[object, float]:
        """The seeded priors (a copy; empty without seeding)."""
        return dict(self._priors)

    def snapshot(self) -> dict[str, float]:
        """JSON-friendly per-key batch estimates (for INFO/debugging)."""
        return {str(key): round(value, 6) for key, value in self._batch_s.items()}


class CycleCostEstimator:
    """Cycle-model priors for the :class:`KernelEstimator`.

    The cosim layer predicts the cycle cost of every KEM operation per
    parameter set (:func:`repro.backend.cosim.model_cycles` — the same
    numbers as the paper's Table II); dividing by a calibrated
    cycles-per-second figure turns those predictions into the seconds
    the :class:`KernelEstimator` reasons in.  Seeding the estimator
    with :meth:`priors` replaces its cold start — where the first
    requests are admitted on *no* prediction and only later batches
    teach the EWMA — with shed/predicted-miss decisions that are
    correct from the very first request.

    The estimator is backend-agnostic: the predictions describe the
    modelled core, and ``clock_hz`` is the calibration knob that maps
    them onto whatever actually executes (the cosim backend itself, or
    a thread/process backend standing in for real silicon).  Wired
    through ``ServiceConfig(cycle_priors=..., cycle_priors_hz=...)``.
    """

    def __init__(
        self,
        profile: str = "ise",
        clock_hz: float = DEFAULT_CYCLE_PRIORS_HZ,
    ) -> None:
        from repro.cosim import PROFILES

        if profile not in PROFILES:
            raise ValueError(
                f"profile must be one of {PROFILES}, got {profile!r}"
            )
        if clock_hz <= 0:
            raise ValueError("clock_hz must be > 0")
        self.profile = profile
        self.clock_hz = clock_hz

    def op_cycles(self, params: LacParams, op_name: str) -> int:
        """Predicted cycles of one ``op_name`` request (wire op names)."""
        from repro.backend.cosim import _OP_FIELDS, model_cycles

        field = _OP_FIELDS.get(op_name)
        if field is None:
            raise KeyError(f"no cycle prediction for op {op_name!r}")
        return int(getattr(model_cycles(params, self.profile), field))

    def op_seconds(self, params: LacParams, op_name: str) -> float:
        """Predicted seconds of one request at the calibrated clock."""
        return self.op_cycles(params, op_name) / self.clock_hz

    def priors(
        self, params_list: Sequence[LacParams] | None = None
    ) -> dict[object, float]:
        """Estimator priors keyed ``(op name, wire param id)``.

        Exactly the keys :class:`repro.serve.KemService` feeds its
        estimator with, so every admission/dispatch decision finds a
        prediction before any batch has run.
        """
        from repro.lac.params import ALL_PARAMS
        from repro.schemes import wire_id_for_params

        out: dict[object, float] = {}
        for params in params_list if params_list is not None else ALL_PARAMS:
            param_id = wire_id_for_params(params)
            for op_name in ("KEYGEN", "ENCAPS", "DECAPS"):
                out[(op_name, param_id)] = self.op_seconds(params, op_name)
        return out


def predicted_miss(
    queue_wait_s: float,
    estimate_s: float | None,
    deadline_s: float | None,
) -> bool:
    """The shedding decision: will this request miss its deadline?

    ``True`` exactly when the time already spent queued plus the
    expected kernel time exceeds the deadline budget — the request is
    then answered without executing, freeing its kernel slot for work
    that can still make it.  Three edges pin the "sheds iff predicted
    miss" contract:

    * no deadline → never shed (``deadline_s is None``);
    * no estimate yet (cold service) → shed only when the queue wait
      *alone* already blew the budget — a certain miss, not a guess;
    * ``queue_wait + estimate == deadline`` → not shed (the budget is
      an inclusive bound; only a *predicted overrun* sheds).
    """
    if deadline_s is None:
        return False
    return queue_wait_s + (estimate_s or 0.0) > deadline_s


__all__ = [
    "CycleCostEstimator",
    "DEFAULT_CYCLE_PRIORS_HZ",
    "KernelEstimator",
    "predicted_miss",
]
