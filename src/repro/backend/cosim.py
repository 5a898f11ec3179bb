"""The cosimulation backend: serve traffic on the simulated ISE core.

Every other backend executes the vectorized numpy kernels; this one
routes each request through the *annotated scalar drivers* of the
paper's co-design (:class:`repro.cosim.accelerated.IseMultiplier`,
:class:`repro.cosim.accelerated.IseBchDecoder` and the counted
reference paths), with one :class:`repro.metrics.OpCounter` per
request, and prices the recorded operations with the calibrated
:mod:`repro.cosim.costs` tables.  The results are **bit-identical** to
the scalar :class:`repro.lac.LacKem` — only the execution schedule
(and therefore the modelled cycle count) differs per profile:

* ``"ise"`` (default) — MUL TER transactions, MUL CHIEN-backed
  constant-time decoding, accelerator-priced SHA-256 and ``pq.modq``;
* ``"ref"`` — the reference software schedule (Table II's baseline);
* ``"const_bch"`` — the reference with the constant-time BCH decoder.

Batches run serially on one owned worker thread — the software
analogue of a single in-order RISC-V core — so the event loop stays
responsive while a request "executes on the hardware".  Per-op cycle
tallies surface through :meth:`CosimBackend.stats` (and from there the
service's ``kem_cosim_cycles_total`` metrics) and, when tracing is on,
as ``cycles_ref``/``cycles_ise`` span tags on the ``kernel`` stage.

The tallies are not approximations: a request served with the
deterministic KAT inputs reproduces the offline Table I/II model
predictions *exactly* (``tests/test_cosim_backend_cycles.py`` pins that
equality and the counts themselves).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.backend.base import KemBackend
from repro.cosim.costs import CycleCosts, price
from repro.cosim.protocol import PROFILE_TABLE, PROFILES, CycleModel, ProtocolCycles
from repro.lac.params import LacParams
from repro.lac.pke import Ciphertext
from repro.metrics import OpCounter
from repro.schemes import KemScheme
from repro.trace import annotate, current_tags

#: The profile of a backend created by name (``create_backend("cosim")``
#: / ``ServiceConfig``) or built without one.
DEFAULT_COSIM_PROFILE = "ise"

#: ``ProtocolCycles`` field per wire op name.
_OP_FIELDS = {
    "KEYGEN": "key_generation",
    "ENCAPS": "encapsulation",
    "DECAPS": "decapsulation",
}

_MODEL_LOCK = threading.Lock()
_MODEL_CYCLES: dict[tuple[str, str], ProtocolCycles] = {}


def model_cycles(params: LacParams, profile: str) -> ProtocolCycles:
    """The offline Table II prediction for ``(params, profile)``, cached.

    One :meth:`repro.cosim.CycleModel.measure_protocol` run per pair per
    process: the predictions are deterministic (fixed seed/message), so
    the cache makes repeated services and benchmarks share a single
    measurement.
    """
    key = (params.name, profile)
    with _MODEL_LOCK:
        cached = _MODEL_CYCLES.get(key)
    if cached is not None:
        return cached
    measured = CycleModel(params, profile).measure_protocol()
    with _MODEL_LOCK:
        return _MODEL_CYCLES.setdefault(key, measured)


class CosimBackend(KemBackend):
    """Execute KEM kernels on the cycle-counted simulated ISE core.

    ``profile`` picks the schedule being priced (one of
    :data:`repro.cosim.PROFILES`, :data:`DEFAULT_COSIM_PROFILE` when
    omitted); it is fixed for the life of the backend.
    """

    name = "cosim"

    def __init__(self, profile: str = DEFAULT_COSIM_PROFILE) -> None:
        if profile not in PROFILES:
            raise ValueError(
                f"cosim profile must be one of {PROFILES}, got {profile!r}"
            )
        # The simulated core runs the scalar drivers; the vectorized
        # per-key transform cache never participates, so it stays off.
        super().__init__()
        self.transform_cache = None
        self.profile = profile
        self.costs: CycleCosts = PROFILE_TABLE[profile].costs
        self._models_lock = threading.Lock()
        self._models: dict[str, CycleModel] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-cosim"
        )
        self._cycles_lock = threading.Lock()
        self._cycles: dict[tuple[str, str], dict[str, int]] = {}
        self._last_counters: dict[tuple[str, str], OpCounter] = {}

    # ------------------------------------------------------------------
    # the simulated core
    # ------------------------------------------------------------------

    def _model_for(self, params: LacParams) -> CycleModel:
        """The per-parameter-set cycle model (same construction as offline)."""
        with self._models_lock:
            model = self._models.get(params.name)
            if model is None:
                model = self._models[params.name] = CycleModel(
                    params, self.profile
                )
            return model

    def _record(self, op: str, params: LacParams, counter: OpCounter) -> int:
        """Price one request's counter into the per-(op, params) tallies."""
        cycles = price(counter, self.costs)
        key = (op, params.name)
        with self._cycles_lock:
            record = self._cycles.get(key)
            if record is None:
                record = self._cycles[key] = {
                    "ops": 0,
                    "cycles": 0,
                    "last_cycles": 0,
                }
            record["ops"] += 1
            record["cycles"] += cycles
            record["last_cycles"] = cycles
            self._last_counters[key] = counter
        return cycles

    def _kernel(
        self,
        scheme: KemScheme,
        params: LacParams,
        op: str,
        pairs: list[Any] | None,
        batch: list[Any],
    ) -> list[Any]:
        """Execute ``batch`` serially on the counted scalar ``LacKem``,
        one counter per request, speaking the adapter's wire bytes."""
        self._require_scheme(scheme)
        kem = self._model_for(params).kem
        results: list[Any] = []
        batch_cycles = 0
        for pair, item in zip(pairs or [None] * len(batch), batch, strict=True):
            counter = OpCounter()
            if op == "ENCAPS":
                enc = kem.encaps(pair.public_key, message=item, counter=counter)
                results.append((enc.ciphertext.to_bytes(), enc.shared_secret))
            elif op == "DECAPS":
                ciphertext = Ciphertext.from_bytes(params, item)
                results.append(kem.decaps(pair.secret_key, ciphertext, counter))
            else:
                results.append(kem.keygen(seed=item, counter=counter))
            batch_cycles += self._record(op, params, counter)
        if current_tags() is not None:
            # span tags for the kernel stage; the reference prediction
            # is computed (and cached) only when a trace sink is active
            tags: dict[str, Any] = {
                "cosim_profile": self.profile,
                "cosim_cycles": batch_cycles,
            }
            if self.profile == "ise":
                tags["cycles_ise"] = batch_cycles
                reference = model_cycles(params, "ref")
                tags["cycles_ref"] = len(results) * getattr(
                    reference, _OP_FIELDS[op]
                )
            else:
                tags["cycles_ref"] = batch_cycles
            annotate(**tags)
        return results

    def supports_scheme(self, scheme: KemScheme) -> bool:
        """Only LAC: the Table I/II cycle model covers nothing else.

        Running another scheme here would return correct bytes with
        *wrong* (unmodelled) cycle tallies — worse than failing, since
        the tallies are the backend's whole point.  Registration of a
        non-LAC key therefore raises
        :class:`repro.errors.UnsupportedScheme` (via
        :meth:`~repro.backend.base.KemBackend.register_key`).
        """
        return scheme.name == "lac"

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def cycle_tallies(self) -> dict[str, dict[str, int]]:
        """Per-``(op, params)`` cycle tallies, keyed ``"OP:params-name"``.

        Each entry carries ``ops`` (requests executed), ``cycles``
        (total modelled cycles) and ``last_cycles`` (the most recent
        request — what the golden regression tests compare against the
        offline model predictions).
        """
        with self._cycles_lock:
            return {
                f"{op}:{name}": dict(record)
                for (op, name), record in sorted(self._cycles.items())
            }

    def last_counter(self, op: str, params: LacParams) -> OpCounter | None:
        """The most recent request's counter for ``(op, params)``.

        Keeps the full phase-attributed breakdown reachable, so tests
        can compare served-path *phase* cycles (Table I's columns)
        against the offline model, not just the totals.
        """
        with self._cycles_lock:
            return self._last_counters.get((op, params.name))

    def stats(self) -> dict[str, Any]:
        """Base counters plus the per-op cycle tallies and the profile."""
        out = super().stats()
        out["cosim"] = {
            "profile": self.profile,
            "cycles": self.cycle_tallies(),
        }
        return out
