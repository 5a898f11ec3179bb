"""Unit tests for the admission policies and the SLO building blocks:
the tenant, deadline and session policies, estimator, shed rule,
priority-aware flushing, per-tier admission.

Everything but ``TestTierWatermarks`` runs on fake clocks and starts no
service or event loop — the components take timestamps as arguments
or from an injected clock, so the tests pin exact decision boundaries
(sheds iff predicted miss) without sleeping.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass

import pytest

from repro.errors import BadRequest, KeyNotFound
from repro.lac.hybrid import HybridChannel
from repro.lac.params import LAC_128
from repro.serve import (
    AsyncKemClient,
    KemService,
    ServiceBusy,
    ServiceConfig,
    TenantQuota,
)
from repro.serve.protocol import (
    Op,
    pack_key_id,
    pack_open_request,
    pack_seal_request,
    qos_for,
)
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.slo import (
    DeadlinePolicy,
    HostedKey,
    KernelEstimator,
    SessionTable,
    TenantPolicy,
    predicted_miss,
)


class TestKernelEstimator:
    def test_cold_estimator_predicts_nothing(self):
        est = KernelEstimator()
        assert est.batch_seconds(("ENCAPS", 1)) is None

    def test_first_sample_is_adopted_verbatim(self):
        est = KernelEstimator()
        est.observe(("ENCAPS", 1), 0.08, 4)
        assert est.batch_seconds(("ENCAPS", 1)) == pytest.approx(0.08)

    def test_ewma_moves_toward_new_samples(self):
        est = KernelEstimator()
        key = ("ENCAPS", 1)
        est.observe(key, 0.10, 10)
        est.observe(key, 0.20, 10)
        # one step of weight 0.2 from 0.10 toward 0.20
        assert est.batch_seconds(key) == pytest.approx(0.12)

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
        assert svc._deadlines.tier_limits == (100, 75, 50)

    def test_default_tier_zero_limit_equals_high_watermark(self):
        svc = self._service(high_watermark=64)
        assert svc._deadlines.tier_limits[0] == 64

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


class FakeClock:
    """A manually advanced clock (seconds)."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _busy_reason(call) -> tuple[str, dict]:
    with pytest.raises(ServiceBusy) as refused:
        call()
    return refused.value.detail, refused.value.tags


class TestTenantPolicy:
    def test_token_bucket_refills_and_caps_at_burst(self):
        clock = FakeClock()
        tenants = TenantPolicy(
            (TenantQuota(tenant=3, ops_per_s=2.0, burst=3.0),), clock
        )
        for _ in range(3):  # a full bucket: the burst
            tenants.admit(3, 0, keygen=False).release(False)
        detail, tags = _busy_reason(lambda: tenants.admit(3, 0, keygen=False))
        assert detail == "tenant 3 over quota (rate)"
        assert tags == {"shed_reason": "quota", "tier": 0, "tenant": 3}
        clock.now += 0.5  # one token at 2 ops/s
        tenants.admit(3, 0, keygen=False).release(False)
        with pytest.raises(ServiceBusy):
            tenants.admit(3, 0, keygen=False)
        clock.now += 3600.0  # an idle hour refills to the cap, no further
        for _ in range(3):
            tenants.admit(3, 0, keygen=False).release(False)
        with pytest.raises(ServiceBusy):
            tenants.admit(3, 0, keygen=False)

    def test_inflight_slots_are_held_until_released(self):
        tenants = TenantPolicy((TenantQuota(tenant=1, max_inflight=2),), FakeClock())
        held = [tenants.admit(1, 2, keygen=False) for _ in range(2)]
        detail, tags = _busy_reason(lambda: tenants.admit(1, 2, keygen=False))
        assert detail == "tenant 1 over quota (inflight)" and tags["tier"] == 2
        held[0].release(False)
        assert tenants.quotas[1].inflight == 1
        tenants.admit(1, 0, keygen=False)

    def test_keygen_key_slot_returns_on_any_non_ok_answer(self):
        tenants = TenantPolicy((TenantQuota(tenant=3, max_keys=1),), FakeClock())
        held = tenants.admit(3, 0, keygen=True)  # reserved at admission
        assert tenants.quotas[3].keys == 1
        detail, _ = _busy_reason(lambda: tenants.admit(3, 0, keygen=True))
        assert detail == "tenant 3 over quota (keys)"
        held.release(True)  # TIMEOUT/BUSY/INTERNAL: the slot comes back
        assert (tenants.quotas[3].keys, tenants.quotas[3].inflight) == (0, 0)
        held = tenants.admit(3, 0, keygen=True)
        held.release(False)  # OK: the key is hosted and keeps the slot
        assert tenants.quotas[3].keys == 1
        # non-KEYGEN traffic is not capped by max_keys
        tenants.admit(3, 0, keygen=False)

    def test_session_slot_is_reserved_at_admission_and_returned_on_close(self):
        tenants = TenantPolicy((TenantQuota(tenant=3, max_sessions=2),), FakeClock())
        held = [tenants.admit(3, 0, keygen=False, session=True) for _ in range(2)]
        detail, tags = _busy_reason(
            lambda: tenants.admit(3, 1, keygen=False, session=True)
        )
        assert detail == "tenant 3 over quota (sessions)"
        assert tags == {"shed_reason": "quota", "tier": 1, "tenant": 3}
        held[0].release(False, True)  # not answered OK: the slot comes back
        held[1].release(False)  # OK: the session is open and keeps it
        assert (tenants.quotas[3].sessions, tenants.quotas[3].inflight) == (1, 0)
        tenants.admit(3, 0, keygen=False, session=True).release(False)
        with pytest.raises(ServiceBusy):
            tenants.admit(3, 0, keygen=False, session=True)
        tenants.close_sessions(3, 2)  # SESSION_CLOSE, or its key removed
        assert tenants.quotas[3].sessions == 0
        tenants.close_sessions(0)  # an unlisted tenant holds nothing
        # other traffic is not capped by max_sessions
        tenants.admit(3, 0, keygen=False).release(False)
        with pytest.raises(ValueError, match="max_sessions"):
            TenantQuota(tenant=3, max_sessions=-1)

    def test_unlisted_tenant_is_unlimited_and_holds_nothing(self):
        tenants = TenantPolicy((TenantQuota(tenant=3, max_keys=0),), FakeClock())
        assert tenants.admit(0, 0, keygen=True) is None
        assert 0 not in tenants.quotas

    def test_keys_are_tenant_scoped(self):
        tenants = TenantPolicy((TenantQuota(tenant=1, max_keys=5),), FakeClock())
        key_id = tenants.host(HostedKey(0, LAC_128, None, tenant=1))
        assert tenants.find(key_id, 1).key_id == key_id
        assert tenants.find(key_id, 0) is None  # another tenant's id
        assert tenants.find(key_id + 1, 1) is None  # never issued
        assert tenants.quotas[1].keys == 1
        tenants.host(HostedKey(0, LAC_128, None, tenant=1), reserved=True)
        assert tenants.quotas[1].keys == 1  # charged at admission instead
        assert tenants.unhost(key_id).tenant == 1
        assert tenants.unhost(key_id) is None
        assert tenants.quotas[1].keys == 0

    def test_info_row(self):
        tenants = TenantPolicy(
            (TenantQuota(tenant=7, max_keys=2, ops_per_s=4.0),), FakeClock()
        )
        tenants.admit(7, 0, keygen=True)
        assert tenants.info() == {
            "7": {
                "keys": 1,
                "inflight": 1,
                "sessions": 0,
                "tokens": 3.0,
                "max_keys": 2,
                "max_inflight": None,
                "max_sessions": None,
                "ops_per_s": 4.0,
            }
        }


@dataclass
class Queued:
    enqueued_at: float
    deadline_s: float | None = None


KEY = ("ENCAPS", 0)


class TestDeadlinePolicy:
    def _policy(self, **config) -> DeadlinePolicy:
        return DeadlinePolicy(ServiceConfig(**config))

    def test_tier_clamp(self):
        policy = self._policy(high_watermark=10, tier_watermarks=(1.0, 0.5))
        assert [policy.clamp_tier(t) for t in (0, 1, 2, 255)] == [0, 1, 1, 1]

    def test_watermark_refusal_is_a_shed_only_below_tier_zero(self):
        policy = self._policy(high_watermark=4, tier_watermarks=(1.0, 0.5, 1.0))
        policy.admit(3, 0, None, "ENCAPS", 0)
        policy.admit(1, 1, None, "ENCAPS", 0)
        detail, tags = _busy_reason(lambda: policy.admit(2, 1, None, "ENCAPS", 0))
        assert detail == "2 requests pending"
        assert tags == {"shed_reason": "watermark", "tier": 1}
        # the full queue is plain backpressure, for any tier that kept it
        for tier in (0, 2):
            assert _busy_reason(lambda: policy.admit(4, tier, None, "ENCAPS", 0)) == (
                "4 requests pending", {}
            )

    def test_hopeless_boundary(self):
        policy = self._policy()
        policy.admit(0, 0, 0.001, "ENCAPS", 0)  # cold: no prediction, admit
        policy.estimator.observe(KEY, 0.5, 4)
        policy.admit(0, 0, None, "ENCAPS", 0)  # no deadline: never shed
        policy.admit(0, 0, 0.5, "ENCAPS", 0)  # == the estimate: admitted
        detail, tags = _busy_reason(lambda: policy.admit(0, 2, 0.499, "ENCAPS", 0))
        assert detail == "deadline 0.499s below expected 0.500s service time"
        assert tags == {"shed_reason": "hopeless", "tier": 2}
        # the global fallback prices a KEYGEN, which is not exempt here
        with pytest.raises(ServiceBusy):
            policy.admit(0, 0, 0.25, "KEYGEN", 0)

    def test_queue_timeout_and_predicted_miss_at_flush(self):
        policy = self._policy(request_timeout=5.0)
        policy.estimator.observe(KEY, 0.5, 4)
        fits = Queued(9.5, deadline_s=1.0)  # 0.5 waited + 0.5 == 1.0
        misses = Queued(9.4, deadline_s=1.0)  # 0.6 + 0.5 > 1.0
        patient = Queued(5.0)  # waited exactly request_timeout
        expired = Queued(4.9)
        live, late = policy.at_flush(KEY, [fits, misses, patient, expired], 10.0)
        assert live == [fits, patient]
        assert [entry for entry, _ in late] == [misses, expired]
        (_, shed), (_, timeout) = late
        assert shed.tags == {"shed_reason": "predicted-miss"}
        assert shed.detail == (
            "shed: queued 0.600s + expected 0.500s exceeds deadline 1.000s"
        )
        assert (timeout.detail, timeout.tags) == ("queued 5.100s", {})

    def test_cold_flush_sheds_only_a_certain_miss(self):
        policy = self._policy(request_timeout=None)
        live, late = policy.at_flush(
            KEY, [Queued(9.0, 1.0), Queued(8.9, 1.0), Queued(0.0)], 10.0
        )
        assert [e.enqueued_at for e in live] == [9.0, 0.0]
        assert [e.enqueued_at for e, _ in late] == [8.9]

    def test_missed_at_completion_exempts_keygen(self):
        policy = self._policy()
        assert policy.at_completion(False, 10.0, 11.0, 1.0) is None  # == budget
        assert policy.at_completion(False, 10.0, 99.0, None) is None
        assert policy.at_completion(True, 10.0, 99.0, 1.0) is None  # KEYGEN
        missed = policy.at_completion(False, 10.0, 11.5, 1.0)
        assert missed.detail == "completed 1.500s past a 1.000s deadline"
        assert missed.tags == {"shed_reason": "missed"}


class TestSessionTable:
    NONCE = bytes(12)

    def test_sessions_are_tenant_scoped(self):
        sessions = SessionTable()
        payload = sessions.open(1, 5, b"kem-ct", bytes(32))
        assert payload == pack_key_id(1) + b"kem-ct" + bytes(32)
        sealed = sessions.answer(Op.SEAL, pack_seal_request(1, self.NONCE, b"hi"), 1)
        body, tag = HybridChannel(bytes(32), b"kem-ct").seal(self.NONCE, b"hi")
        assert sealed == body + tag
        for op, request in (
            (Op.SEAL, pack_seal_request(1, self.NONCE, b"hi")),
            (Op.OPEN, pack_open_request(1, self.NONCE, sealed)),
            (Op.SESSION_CLOSE, pack_key_id(1)),
        ):
            with pytest.raises(KeyNotFound, match="unknown session id 1"):
                sessions.answer(op, request, 2)
        assert len(sessions) == 1
        opened = sessions.answer(Op.OPEN, pack_open_request(1, self.NONCE, sealed), 1)
        assert opened == b"hi"
        tampered = sealed[:-1] + bytes([sealed[-1] ^ 1])
        with pytest.raises(BadRequest, match="authentication failed"):
            sessions.answer(Op.OPEN, pack_open_request(1, self.NONCE, tampered), 1)
        assert sessions.answer(Op.SESSION_CLOSE, pack_key_id(1), 1) == b""
        assert len(sessions) == 0
        with pytest.raises(KeyNotFound):
            sessions.answer(Op.SESSION_CLOSE, pack_key_id(1), 1)

    def test_close_key_closes_only_that_keys_sessions(self):
        sessions = SessionTable()
        for key_id in (5, 6, 5):
            sessions.open(1, key_id, b"kem-ct", bytes(32))
        assert sessions.close_key(5) == 2
        assert sessions.close_key(5) == 0
        for session_id in (1, 3):
            with pytest.raises(KeyNotFound):
                sessions.answer(Op.SESSION_CLOSE, pack_key_id(session_id), 1)
        assert len(sessions) == 1
        assert sessions.answer(Op.SESSION_CLOSE, pack_key_id(2), 1) == b""
