"""Tests for the protocol-level cycle model (Table II machinery)."""

import dataclasses

import pytest

from repro.backend import CosimBackend
from repro.bch.code import LAC_BCH_128_256
from repro.cosim.costs import price_phases
from repro.cosim.protocol import PROFILE_TABLE, PROFILES, CycleModel, speedup
from repro.eval.table1 import _received_word, measure_decode
from repro.lac.params import LAC_128, LAC_192
from repro.metrics import OpCounter


@pytest.fixture(scope="module")
def models():
    """One CycleModel per profile for LAC-128 (module-scoped: expensive)."""
    return {profile: CycleModel(LAC_128, profile) for profile in PROFILES}


@pytest.fixture(scope="module")
def protocols(models):
    return {p: m.measure_protocol() for p, m in models.items()}


class TestKernels:
    def test_ise_multiplication_orders_of_magnitude_faster(self, models):
        ref = models["ref"].measure_multiplication()
        ise = models["ise"].measure_multiplication()
        assert ref / ise > 100  # paper: 2,381,843 / 6,390 = 373x

    def test_ref_multiplication_near_paper(self, models):
        assert 0.9 < models["ref"].measure_multiplication() / 2_381_843 < 1.1

    def test_const_bch_decode_slower_than_ref(self, models):
        ref = models["ref"].measure_bch_decode()
        const = models["const_bch"].measure_bch_decode()
        assert 2.5 < const / ref < 4.5  # the cost of constant time

    def test_ise_bch_faster_than_const(self, models):
        const = models["const_bch"].measure_bch_decode()
        ise = models["ise"].measure_bch_decode()
        assert 2.0 < const / ise < 4.5  # paper: 514,280/160,295 = 3.21

    def test_gen_a_barely_accelerated(self, models):
        """The paper's SHA256 observation: GenA moves by only a few %."""
        ref = models["ref"].measure_gen_a()
        ise = models["ise"].measure_gen_a()
        assert 1.0 < ref / ise < 1.15

    def test_ise_mult_cheaper_than_generation(self, models):
        """Sec. IV-A: accelerated mult is faster than polynomial generation."""
        kernels = models["ise"].measure_kernels()
        assert kernels.multiplication < kernels.gen_a
        assert kernels.multiplication < kernels.sample_poly

    def test_bch_decode_with_errors_costs_more_on_ref(self, models):
        zero = models["ref"].measure_bch_decode(errors=0)
        many = models["ref"].measure_bch_decode(errors=16)
        assert many > zero

    def test_bch_decode_constant_on_const_profile(self, models):
        zero = models["const_bch"].measure_bch_decode(errors=0)
        many = models["const_bch"].measure_bch_decode(errors=16)
        assert zero == many


class TestProtocol:
    def test_profiles_ordered(self, protocols):
        assert protocols["ise"].total < protocols["ref"].total
        assert protocols["ref"].total <= protocols["const_bch"].total

    def test_decapsulation_most_expensive(self, protocols):
        for row in protocols.values():
            assert row.decapsulation > row.encapsulation > row.key_generation

    def test_headline_speedup_near_paper(self, protocols):
        """Paper LAC-128: 7.66x (const-BCH baseline over optimized)."""
        factor = speedup(protocols["const_bch"], protocols["ise"])
        assert 6.0 < factor < 9.5

    def test_ref_totals_near_paper(self, protocols):
        paper = {
            "key_generation": 2_980_721,
            "encapsulation": 4_969_233,
            "decapsulation": 7_544_632,
        }
        row = protocols["ref"]
        for field, value in paper.items():
            assert 0.85 < getattr(row, field) / value < 1.15, field

    def test_ise_totals_near_paper(self, protocols):
        paper = {
            "key_generation": 542_814,
            "encapsulation": 640_237,
            "decapsulation": 839_132,
        }
        row = protocols["ise"]
        for field, value in paper.items():
            assert 0.7 < getattr(row, field) / value < 1.3, field

    def test_const_bch_only_changes_decapsulation(self, protocols):
        # keygen/encaps never decode, so ref and const-BCH agree there
        assert protocols["ref"].key_generation == protocols["const_bch"].key_generation
        assert protocols["ref"].encapsulation == protocols["const_bch"].encapsulation
        assert protocols["ref"].decapsulation < protocols["const_bch"].decapsulation


class TestConfiguration:
    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            CycleModel(LAC_128, "turbo")

    def test_lac192_ref_mult_scales_4x(self):
        m128 = CycleModel(LAC_128, "ref").measure_multiplication()
        m192 = CycleModel(LAC_192, "ref").measure_multiplication()
        assert 3.8 < m192 / m128 < 4.2  # n^2 scaling, paper: 9.48M/2.38M


class TestProfileTable:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_reader_takes_decoder_and_costs_from_the_table(
        self, profile, monkeypatch
    ):
        # swap in a recognisable decoder class and a distinct cost table:
        # whoever chose on their own would miss one of them
        entry = PROFILE_TABLE[profile]

        class Decoder(entry.decoder):
            built = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                Decoder.built += 1

        costs = dataclasses.replace(entry.costs, call=entry.costs.call + 1000)
        monkeypatch.setitem(
            PROFILE_TABLE, profile, dataclasses.replace(entry, decoder=Decoder, costs=costs)
        )

        model = CycleModel(LAC_128, profile)
        assert type(model.kem.pke.schedule.bch_decoder) is Decoder
        assert model.costs is costs

        backend = CosimBackend(profile)
        try:
            assert backend.costs is costs
            served = backend._model_for(LAC_128).kem.pke.schedule.bch_decoder
            assert type(served) is Decoder
        finally:
            backend.close()

        # Table I decodes with the table's decoder and prices with its costs
        built = Decoder.built
        row = measure_decode(profile, errors=0)
        assert Decoder.built == built + 1
        counter = OpCounter()
        entry.decoder(LAC_BCH_128_256).decode(_received_word(0), counter)
        assert row.decode == sum(price_phases(counter, costs).values())
        assert row.decode != sum(price_phases(counter, entry.costs).values())
