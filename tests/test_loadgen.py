"""Tests for the open-loop load generator (`repro.loadgen`).

The built-in Poisson schedule is checked for seed determinism and its
bounds; the outcome mapping is exercised with fake senders raising each
typed client error, including the hang guard, without a real service
in the loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import DeadlineExceeded, RequestTimedOut, ServiceBusy
from repro.loadgen import LatencyRecorder, OpenLoopLoadGen, TierSpec, percentile

TIERS = (TierSpec(0, weight=3.0), TierSpec(2, weight=1.0))


def _run(send, rate=2_000.0, **kwargs):
    kwargs.setdefault("max_requests", 20)
    gen = OpenLoopLoadGen(send, rate, **kwargs)
    return gen, asyncio.run(gen.run())


def _schedule(seed, rate=2_000.0, **kwargs):
    """The tiers a duration-bounded run fires, in order."""
    seen = []

    async def send(spec):
        seen.append(spec.tier)

    _run(send, rate, seed=seed, tiers=TIERS, max_requests=None, **kwargs)
    return seen


class TestPoissonSchedule:
    def test_same_seed_replays_exactly(self):
        # the count within the window follows the drawn gaps and the
        # tier sequence the picks, so both replay however late it fires
        a = _schedule(7, duration_s=0.05)
        b = _schedule(7, duration_s=0.05)
        assert len(a) > 50
        assert a == b

    def test_different_seeds_differ(self):
        assert _schedule(1, duration_s=0.05) != _schedule(2, duration_s=0.05)

    def test_empirical_rate_matches_declared(self):
        fired = _schedule(3, rate=4_000.0, duration_s=0.25)
        assert len(fired) / 0.25 == pytest.approx(4_000.0, rel=0.1)

    def test_validation(self):
        async def send(spec):
            pass

        for rate in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                OpenLoopLoadGen(send, rate, max_requests=1)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 99.0) is None

    def test_single_sample_is_every_percentile(self):
        assert percentile([0.3], 0.0) == 0.3
        assert percentile([0.3], 50.0) == 0.3
        assert percentile([0.3], 100.0) == 0.3

    def test_nearest_rank_returns_observed_samples(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0
        # the rank is ceil(p * N / 100), so an exact rank stays exact
        assert percentile([1.0, 2.0, 3.0, 4.0], 75.0) == 3.0
        assert percentile([float(i) for i in range(1, 11)], 30.0) == 3.0

    def test_out_of_range_p_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestLatencyRecorder:
    def test_unknown_outcome_is_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record("dropped", 0.1)

    def test_tenant_ledger_and_percentiles(self):
        rec = LatencyRecorder()
        for ms in (10, 20, 30):
            rec.record("ok", ms / 1e3, tenant=1)
        rec.record("busy", 0.001, tenant=1)
        rec.record("late", 1.0, tenant=2)
        assert rec.total == 5
        assert rec.tenant_ledger() == {1: {"ok": 3, "busy": 1}, 2: {"late": 1}}
        assert rec.tenant_latency_percentile(1, 99.0) == pytest.approx(0.03)
        assert rec.tenant_latency_percentile(2, 99.0) is None  # no ok


class TestTierSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TierSpec(tier=-1)
        with pytest.raises(ValueError):
            TierSpec(weight=0.0)
        with pytest.raises(ValueError):
            TierSpec(deadline_s=0.0)
        with pytest.raises(ValueError):
            TierSpec(tenant=-1)


class TestOpenLoopLoadGen:
    """Outcome mapping and scheduling against fake senders."""

    def test_typed_errors_map_to_the_outcome_vocabulary(self):
        errors = iter(
            [
                None,
                ServiceBusy("shed"),
                RequestTimedOut("expired"),
                DeadlineExceeded("late"),
                RuntimeError("boom"),
            ]
        )

        async def send(spec):
            err = next(errors)
            if err is not None:
                raise err

        _, rec = _run(send, max_requests=5)
        assert rec.counts == {
            "ok": 1, "busy": 1, "timeout": 1, "late": 1, "error": 1
        }

    def test_hang_guard_records_late_instead_of_wedging(self):
        async def send(spec):
            await asyncio.sleep(3600.0)

        _, rec = _run(send, max_requests=3, hang_timeout_s=0.05)
        assert rec.counts["late"] == 3
        assert all(s >= 0.05 for s in rec.samples("late"))

    def test_latency_counts_from_scheduled_arrival(self):
        # a send that takes ~20 ms must record >= 20 ms even though the
        # driver never falls behind
        async def send(spec):
            await asyncio.sleep(0.02)

        _, rec = _run(send, max_requests=4)
        assert all(s >= 0.02 for s in rec.samples("ok"))

    def test_tier_mix_follows_the_weights(self):
        seen = []

        async def send(spec):
            seen.append(spec.tier)

        _, rec = _run(send, max_requests=400, tiers=TIERS, seed=8)
        assert rec.total == 400
        share = seen.count(0) / len(seen)
        assert 0.65 <= share <= 0.85  # ~0.75 by weight
        assert rec.tier_counts[("ok", 2)] == seen.count(2)

    def test_max_requests_bounds_the_run(self):
        fired = 0

        async def send(spec):
            nonlocal fired
            fired += 1

        _run(send, max_requests=7)
        assert fired == 7

    def test_duration_bounds_the_run(self):
        async def send(spec):
            pass

        gen, rec = _run(send, rate=1_000.0, seed=2, max_requests=None, duration_s=0.05)
        # ~50 arrivals expected at 1,000/s; the seed fixes the count
        assert 10 <= rec.total <= 120
        assert gen.elapsed_s >= 0.05

    def test_validation(self):
        async def send(spec):
            pass

        with pytest.raises(ValueError):
            OpenLoopLoadGen(send, 10.0)  # unbounded
        with pytest.raises(ValueError):
            OpenLoopLoadGen(send, 10.0, duration_s=0.0)
        with pytest.raises(ValueError):
            OpenLoopLoadGen(send, 10.0, max_requests=0)
        with pytest.raises(ValueError):
            OpenLoopLoadGen(send, 10.0, max_requests=1, tiers=())
        with pytest.raises(ValueError):
            OpenLoopLoadGen(send, 10.0, max_requests=1, hang_timeout_s=0.0)
