"""Unit tests for the SLO building blocks: estimator, shed rule,
priority-aware flushing, per-tier admission.

Everything here runs on fake clocks — the components take timestamps
as arguments, so the tests pin exact decision boundaries (sheds iff
predicted miss) without sleeping.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.lac.params import LAC_128
from repro.serve import AsyncKemClient, KemService, ServiceBusy, ServiceConfig
from repro.serve.protocol import qos_for
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.slo import KernelEstimator, predicted_miss


class TestKernelEstimator:
    def test_cold_estimator_predicts_nothing(self):
        est = KernelEstimator()
        assert est.batch_seconds(("ENCAPS", 1)) is None

    def test_first_sample_is_adopted_verbatim(self):
        est = KernelEstimator()
        est.observe(("ENCAPS", 1), 0.08, 4)
        assert est.batch_seconds(("ENCAPS", 1)) == pytest.approx(0.08)

    def test_ewma_moves_toward_new_samples(self):
        est = KernelEstimator(alpha=0.5)
        key = ("ENCAPS", 1)
        est.observe(key, 0.10, 10)
        est.observe(key, 0.20, 10)
        assert est.batch_seconds(key) == pytest.approx(0.15)

    def test_unseen_key_falls_back_to_global(self):
        est = KernelEstimator()
        est.observe(("ENCAPS", 1), 0.05, 5)
        assert est.batch_seconds(("DECAPS", 2)) == pytest.approx(0.05)

    def test_degenerate_samples_are_ignored(self):
        est = KernelEstimator()
        est.observe(("ENCAPS", 1), 0.1, 0)  # empty batch
        est.observe(("ENCAPS", 1), -1.0, 4)  # negative clock skew
        assert est.batch_seconds(("ENCAPS", 1)) is None

    def test_snapshot_is_json_shaped(self):
        est = KernelEstimator()
        est.observe(("ENCAPS", 1), 0.05, 5)
        snap = est.snapshot()
        assert snap == {"('ENCAPS', 1)": 0.05}


class TestPredictedMiss:
    """Sheds iff predicted miss — the exact boundary, all edges."""

    def test_no_deadline_never_sheds(self):
        assert predicted_miss(1e9, 1e9, None) is False

    def test_predicted_overrun_sheds(self):
        assert predicted_miss(0.3, 0.3, 0.5) is True

    def test_fitting_request_is_not_shed(self):
        assert predicted_miss(0.1, 0.2, 0.5) is False

    def test_exact_fit_is_not_shed(self):
        # the budget is an inclusive bound: == deadline still admits
        assert predicted_miss(0.2, 0.3, 0.5) is False

    def test_no_estimate_sheds_only_on_certain_miss(self):
        assert predicted_miss(0.2, None, 0.5) is False
        assert predicted_miss(0.6, None, 0.5) is True


class TestPriorityFlushing:
    def test_poll_orders_due_batches_most_urgent_first(self):
        sched = MicroBatchScheduler(
            max_batch=8, priority_of=lambda e: e[0]
        )
        # entries are (tier, name) tuples; three keys opened same beat
        sched.submit("batch-key", (2, "a"), now=0.0)
        sched.submit("interactive-key", (0, "b"), now=0.0)
        sched.submit("standard-key", (1, "c"), now=0.0)
        batches = sched.poll(now=10.0, free=8)
        tiers = [min(e[0] for e in b.entries) for b in batches]
        assert tiers == [0, 1, 2]

    def test_drain_orders_by_priority_too(self):
        sched = MicroBatchScheduler(max_batch=8, priority_of=lambda e: e)
        sched.submit("k1", 3, now=0.0)
        sched.submit("k2", 1, now=0.0)
        assert [b.entries for b in sched.drain()] == [[1], [3]]

    def test_without_priority_of_order_is_submission_order(self):
        sched = MicroBatchScheduler(max_batch=8)
        sched.submit("k1", 3, now=0.0)
        sched.submit("k2", 1, now=0.0)
        assert [b.entries for b in sched.poll(10.0, 8)] == [[3], [1]]


class TestTierWatermarks:
    """Per-tier admission limits on a real (but idle) service."""

    def _service(self, **kwargs) -> KemService:
        return KemService(ServiceConfig(**kwargs))

    def test_tier_limits_scale_the_high_watermark(self):
        svc = self._service(
            high_watermark=100, tier_watermarks=(1.0, 0.75, 0.5)
        )
        assert svc._tier_limits == (100, 75, 50)

    def test_default_tier_zero_limit_equals_high_watermark(self):
        svc = self._service(high_watermark=64)
        assert svc._tier_limits[0] == 64

    def test_wire_tiers_beyond_table_clamp_to_last(self):
        async def main():
            svc = self._service(
                high_watermark=100, tier_watermarks=(1.0, 0.5)
            )
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=b"\x07" * (LAC_128.seed_bytes + 32))
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, LAC_128)
            svc._pending = 60  # above the tier-1 limit, below tier-0
            # tier 9 clamps onto the last (0.5) watermark: rejected
            with pytest.raises(ServiceBusy):
                await client.encaps(key_id, tier=9)
            shed = svc.metrics.snapshot()["sheds"]
            assert shed.get("watermark:1:0") == 1
            # tier 0 still has headroom at the same depth
            ct, _shared = await client.encaps(key_id)
            assert ct
            assert svc.pending == 60  # the served request gave its slot back
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_qos_helper_and_validation(self):
        assert qos_for() is None
        spec = qos_for(deadline_s=0.25, tier=2)
        assert spec is not None
        assert spec.deadline_us == 250_000
        assert spec.deadline_s == pytest.approx(0.25)
        # inf used to overflow and NaN to fail integer conversion; all
        # three now get the same refusal
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="deadline_s must be > 0"):
                qos_for(deadline_s=bad)
