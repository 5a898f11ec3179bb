"""Golden cycle regressions for the cosim backend.

Two claims are pinned here with **exact equality** (cycles are
modelled, not timed — there is no tolerance to hide behind):

1. a request served through :class:`repro.backend.CosimBackend` with
   the deterministic KAT inputs costs exactly what the offline
   :class:`repro.cosim.CycleModel` predicts for the same inputs
   (Table II), for both the reference and the ISE profiles — the
   serving layer adds protocol machinery but not a single modelled
   cycle — and exactly the frozen counts of ``FROZEN_CYCLES`` and
   ``FROZEN_SHA256_BLOCKS``;
2. the BCH *decode phases* of the ISE profile (Table I's columns) are
   constant-schedule: two decapsulations of different ciphertexts
   price every decode phase identically.
"""

import pytest

from repro.backend import CosimBackend
from repro.backend.cosim import model_cycles
from repro.cosim.costs import ISE_COSTS, price_phases
from repro.lac.params import ALL_PARAMS, LAC_128
from repro.serve import KemClient, ServiceConfig, ThreadedService
from repro.schemes import LAC_SCHEME

SEED = bytes(range(64))
MESSAGE = bytes(range(32))  # == the cycle model's seed[:32]

#: the constant-schedule phases of the ISE decoder (Table I's columns)
DECODE_PHASES = ("syndrome", "error_locator", "chien")

#: Served KAT cycles, frozen: (set, profile) -> (KEYGEN, ENCAPS, DECAPS).
#: The served == offline check moves with the cost tables and the
#: counted code; these literals do not, so a change that moves the
#: model and the served path together still fails here and has to be
#: re-frozen on purpose.
FROZEN_CYCLES = {
    ("LAC-128", "ref"): (2_917_328, 4_997_542, 7_523_520),
    ("LAC-128", "ise"): (537_926, 764_582, 964_020),
    ("LAC-192", "ref"): (10_100_400, 13_320_564, 22_845_098),
    ("LAC-192", "ise"): (803_630, 1_158_544, 1_413_486),
    ("LAC-256", "ref"): (10_322_584, 17_997_156, 27_613_078),
    ("LAC-256", "ise"): (1_018_614, 1_471_596, 1_851_858),
}

#: Counted SHA-256 compressions (``sha256_block``) of the same served
#: KAT ops, frozen beside the cycles: (set, profile) -> (KEYGEN,
#: ENCAPS, DECAPS).  The counted hasher prices blocks by arithmetic on
#: the absorbed length, so these pin that arithmetic to the
#: compressions the FIPS engine performs.
FROZEN_SHA256_BLOCKS = {
    ("LAC-128", "ref"): (72, 113, 104),
    ("LAC-128", "ise"): (72, 113, 104),
    ("LAC-192", "ref"): (90, 132, 115),
    ("LAC-192", "ise"): (90, 132, 115),
    ("LAC-256", "ref"): (114, 171, 154),
    ("LAC-256", "ise"): (114, 171, 154),
}


def _serve_kat(backend, params):
    """keygen(SEED) -> encaps(MESSAGE) -> decaps on the backend itself."""
    (pair,) = backend.submit(LAC_SCHEME, params, "KEYGEN", None, [SEED]).result()
    [(ct_bytes, shared)] = backend.submit(
        LAC_SCHEME, params, "ENCAPS", [pair], [MESSAGE]
    ).result()
    assert backend.submit(
        LAC_SCHEME, params, "DECAPS", [pair], [ct_bytes]
    ).result() == [shared]


class TestGoldenCycles:
    """Served cycles == offline model predictions, exactly."""

    @pytest.mark.parametrize("profile", ["ref", "ise"])
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_served_cycles_equal_offline_prediction(self, params, profile):
        predicted = model_cycles(params, profile)
        backend = CosimBackend(profile=profile)
        try:
            _serve_kat(backend, params)
            tallies = backend.cycle_tallies()
            blocks = tuple(
                backend.last_counter(op, params).totals()["sha256_block"]
                for op in ("KEYGEN", "ENCAPS", "DECAPS")
            )
        finally:
            backend.close()
        assert blocks == FROZEN_SHA256_BLOCKS[params.name, profile]
        served = {
            op: tallies[f"{op}:{params.name}"]["last_cycles"]
            for op in ("KEYGEN", "ENCAPS", "DECAPS")
        }
        assert served["KEYGEN"] == predicted.key_generation
        assert served["ENCAPS"] == predicted.encapsulation
        assert served["DECAPS"] == predicted.decapsulation
        assert (
            served["KEYGEN"], served["ENCAPS"], served["DECAPS"]
        ) == FROZEN_CYCLES[params.name, profile]

    def test_tallies_accumulate_and_stats_surface_them(self):
        backend = CosimBackend()
        try:
            _serve_kat(backend, LAC_128)
            _serve_kat(backend, LAC_128)
            tallies = backend.cycle_tallies()
            stats = backend.stats()
        finally:
            backend.close()
        predicted = model_cycles(LAC_128, "ise")
        record = tallies["KEYGEN:LAC-128"]
        assert record["ops"] == 2
        assert record["last_cycles"] == predicted.key_generation
        assert record["cycles"] == 2 * predicted.key_generation
        assert stats["cosim"]["profile"] == "ise"
        assert stats["cosim"]["cycles"] == tallies

    def test_service_metrics_pin_the_cycle_counts(self):
        """Through the full protocol path, the exported metrics carry
        the exact Table II numbers."""
        predicted = model_cycles(LAC_128, "ise")
        backend = CosimBackend()
        with ThreadedService(
            ServiceConfig(max_batch=4), backend=backend
        ) as svc:
            client = KemClient(svc.connect())
            key_id, _pk = client.keygen(LAC_128, SEED)
            ct_bytes, shared = client.encaps(key_id, MESSAGE)
            assert client.decaps(key_id, ct_bytes) == shared
            client.close()
            text = svc.service.metrics.render_text()
        backend.close()
        for op, cycles in (
            ("KEYGEN", predicted.key_generation),
            ("ENCAPS", predicted.encapsulation),
            ("DECAPS", predicted.decapsulation),
        ):
            label = f'op="{op}",profile="ise",params="LAC-128"'
            assert f"kem_cosim_cycles_total{{{label}}} {cycles}" in text
            assert f"kem_cosim_ops_total{{{label}}} 1" in text


class TestConstantSchedule:
    """Table I: the ISE decode phases cost the same for any input."""

    def test_decode_phases_identical_across_ciphertexts(self):
        backend = CosimBackend(profile="ise")
        try:
            pair = backend.keygen(LAC_128, SEED)
            phase_prices = []
            for message in (MESSAGE, bytes(32), b"\xff" * 32):
                [(ct_bytes, _)] = backend.submit(
                    LAC_SCHEME, LAC_128, "ENCAPS", [pair], [message]
                ).result()
                backend.submit(
                    LAC_SCHEME, LAC_128, "DECAPS", [pair], [ct_bytes]
                ).result()
                counter = backend.last_counter("DECAPS", LAC_128)
                assert counter is not None
                phase_prices.append(price_phases(counter, ISE_COSTS))
        finally:
            backend.close()
        first = phase_prices[0]
        present = [p for p in DECODE_PHASES if p in first]
        assert present, f"no decode phases recorded (have {sorted(first)})"
        for other in phase_prices[1:]:
            for phase in present:
                assert other[phase] == first[phase], phase
