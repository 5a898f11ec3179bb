"""Integration tests for deadline-aware shedding on a live service.

Each shed path is driven end-to-end through the wire protocol: the
typed client attaches QoS (deadline/tier), the service decides, and the
caller sees exactly :class:`ServiceBusy` (admission sheds) or
:class:`RequestTimedOut` (dispatch/completion sheds) — never a hang,
never a silently late OK.  A seeded storm confirms the ledger stays
balanced under a fault plan: every request is answered, every failure
is typed, pending drains to zero.  Last, twice the service's capacity
is offered open loop: the excess is shed and no OK leaves late.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.errors import RequestTimedOut, ServiceBusy
from repro.faults import (
    KIND_BUSY,
    KIND_STALL,
    SITE_ADMISSION,
    SITE_KERNEL,
    FaultPlan,
    FaultSpec,
)
from repro.lac.params import LAC_128
from repro.loadgen import OpenLoopLoadGen, TierSpec
from repro.serve import AsyncKemClient, KemService, ServiceConfig
from repro.schemes import wire_id_for_params
from repro.trace import InMemoryRecorder, Tracer
from tests.test_multitenant import _served_within_deadline

SEED = b"\x11" * (LAC_128.seed_bytes + 32)
PID = wire_id_for_params(LAC_128)


async def _started(config: ServiceConfig, plan: FaultPlan | None = None):
    svc = KemService(config, fault_plan=plan)
    await svc.start()
    key_id = svc.add_keypair(LAC_128, seed=SEED)
    client = AsyncKemClient(*(await svc.connect()))
    client.register_key(key_id, LAC_128)
    return svc, client, key_id


def test_hopeless_deadline_is_shed_at_admission_as_busy():
    """Estimate alone exceeds the budget: shed before queueing."""

    async def main():
        svc, client, key_id = await _started(ServiceConfig())
        # the estimator has seen 5 s batches; a 50 ms budget is hopeless
        svc._deadlines.estimator.observe(("ENCAPS", PID), 5.0, 1)
        with pytest.raises(ServiceBusy):
            await client.encaps(key_id, deadline_s=0.05)
        assert svc.metrics.snapshot()["sheds"] == {"hopeless:0:0": 1}
        # the same request without a deadline is served normally
        ct, _ = await client.encaps(key_id)
        assert ct
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


def test_config_default_deadline_applies_to_bare_requests():
    """``default_deadline_s`` guards callers that send no QoS at all."""

    async def main():
        svc, client, key_id = await _started(
            ServiceConfig(default_deadline_s=0.05)
        )
        svc._deadlines.estimator.observe(("ENCAPS", PID), 5.0, 1)
        with pytest.raises(ServiceBusy):
            await client.encaps(key_id)  # no per-request deadline
        assert svc.metrics.snapshot()["sheds"] == {"hopeless:0:0": 1}
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


def test_patient_batch_window_triggers_predicted_miss():
    """Queue wait alone blows the budget: shed at dispatch as TIMEOUT.

    A cold adaptive policy waits the full ``max_wait_us`` for a lone
    request; with a 150 ms window and a 20 ms budget the dispatch-time
    check must shed instead of running a guaranteed-late kernel.
    """

    async def main():
        svc, client, key_id = await _started(
            ServiceConfig(max_batch=64, max_wait_us=150_000.0)
        )
        with pytest.raises(RequestTimedOut):
            await client.encaps(key_id, deadline_s=0.02)
        assert svc.metrics.snapshot()["sheds"] == {"predicted-miss:0:0": 1}
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


def test_completion_past_deadline_is_timeout_not_late_ok():
    """A kernel stall past the budget converts the OK into TIMEOUT."""

    async def main():
        plan = FaultPlan(
            [FaultSpec(SITE_KERNEL, KIND_STALL, 1.0, max_fires=1, delay_s=0.08)]
        )
        svc, client, key_id = await _started(ServiceConfig(), plan)
        with pytest.raises(RequestTimedOut):
            await client.encaps(key_id, deadline_s=0.02)
        assert svc.metrics.snapshot()["sheds"] == {"missed:0:0": 1}
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


def test_keygen_is_exempt_from_completion_enforcement():
    """A late KEYGEN still answers OK — its response names a key the
    service now hosts; discarding it would leak the slot."""

    async def main():
        plan = FaultPlan(
            [FaultSpec(SITE_KERNEL, KIND_STALL, 1.0, max_fires=1, delay_s=0.08)]
        )
        svc = KemService(ServiceConfig(), fault_plan=plan)
        await svc.start()
        client = AsyncKemClient(*(await svc.connect()))
        key_id, pk = await client.keygen(LAC_128, SEED, deadline_s=0.02)
        assert pk is not None
        assert "missed:0:0" not in svc.metrics.snapshot()["sheds"]
        # the late key is genuinely usable
        ct, _ = await client.encaps(key_id)
        assert ct
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


def test_shed_responses_carry_tier_metrics():
    """Sheds are attributed to the wire tier, not a blanket zero."""

    async def main():
        svc, client, key_id = await _started(ServiceConfig())
        svc._deadlines.estimator.observe(("ENCAPS", PID), 5.0, 1)
        with pytest.raises(ServiceBusy):
            await client.encaps(key_id, deadline_s=0.05, tier=2)
        assert svc.metrics.snapshot()["sheds"] == {"hopeless:2:0": 1}
        await client.aclose()
        await svc.shutdown()

    asyncio.run(main())


@pytest.mark.timing
def test_seeded_storm_keeps_the_ledger_balanced():
    """Fault-injected load with tight deadlines: every request answered,
    every failure typed BUSY/TIMEOUT, sheds recorded, pending drained."""

    CLIENTS, OPS = 4, 10

    async def worker(svc, key_id, index, outcomes):
        client = AsyncKemClient(*(await svc.connect()))
        client.register_key(key_id, LAC_128)
        for op in range(OPS):
            # odd ops carry a budget a stalled batch cannot meet; even
            # ops are deadline-free, so they keep feeding the estimator
            # even when the stall storm drives the EWMA sky-high
            deadline = 0.02 if op % 2 else None
            try:
                await client.encaps(
                    key_id, deadline_s=deadline, tier=(index + op) % 3
                )
                outcomes["ok"] += 1
            except ServiceBusy:
                outcomes["busy"] += 1
            except RequestTimedOut:
                outcomes["timeout"] += 1
        await client.aclose()

    async def main():
        plan = FaultPlan(
            [
                FaultSpec(SITE_KERNEL, KIND_STALL, 0.35, delay_s=0.05),
                FaultSpec(SITE_ADMISSION, KIND_BUSY, 0.15),
            ],
            seed=101,
        )
        svc = KemService(ServiceConfig(max_batch=4), fault_plan=plan)
        await svc.start()
        key_id = svc.add_keypair(LAC_128, seed=SEED)
        outcomes: Counter[str] = Counter()
        await asyncio.gather(
            *[worker(svc, key_id, i, outcomes) for i in range(CLIENTS)]
        )

        snap = svc.metrics.snapshot()
        await svc.shutdown()

        # every scheduled request reached a terminal, typed outcome
        assert sum(outcomes.values()) == CLIENTS * OPS
        assert outcomes["ok"] > 0, "the storm wiped out all progress"
        assert outcomes["busy"] + outcomes["timeout"] > 0

        # the deadline defense actually fired (stalls blow the 30 ms
        # budget) and is visible in metrics
        assert sum(snap["sheds"].values()) > 0

        # balanced ledger: requests in == responses out, nothing pending
        assert sum(snap["requests"].values()) == sum(snap["responses"].values())
        assert svc._pending == 0
        assert snap["queue_depth"] == 0

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_twice_capacity_sheds_and_serves_no_ok_late():
    """Offered twice what it can serve, the service sheds the excess
    instead of answering it late.

    Every batch stalls ``STALL_S`` in the kernel, so capacity is known
    without probing: ``SLOTS`` batches of ``MAX_BATCH`` per stall.  Twice
    that arrives open loop, every request carrying the same wire deadline
    on one of two tiers.  Size flushes take no slot, so the backlog piles
    up in the pool where no dispatch-time prediction sees it; only the
    completion check stands between it and a late ``OK``."""
    STALL_S, MAX_BATCH, SLOTS, DEADLINE_S = 0.05, 4, 2, 0.25
    capacity = SLOTS * MAX_BATCH / STALL_S
    recorder = InMemoryRecorder()

    async def main():
        plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_STALL, 1.0, delay_s=STALL_S)])
        svc = await KemService(
            ServiceConfig(max_batch=MAX_BATCH, backend="thread", backend_workers=SLOTS),
            fault_plan=plan,
            tracer=Tracer(recorder=recorder, enabled=True),
        ).start()
        key_id = svc.add_keypair(LAC_128, seed=SEED)
        client = AsyncKemClient(*(await svc.connect()))
        client.register_key(key_id, LAC_128)

        async def send(spec):
            await client.encaps(key_id, deadline_s=spec.deadline_s, tier=spec.tier)

        run = await OpenLoopLoadGen(
            send,
            2 * capacity,
            seed=5,
            duration_s=1.5,
            tiers=(
                TierSpec(tier=0, weight=0.7, deadline_s=DEADLINE_S),
                TierSpec(tier=2, weight=0.3, deadline_s=DEADLINE_S),
            ),
        ).run()
        await client.aclose()
        await svc.shutdown()
        return run

    run = asyncio.run(asyncio.wait_for(main(), 60.0))
    ok, late = _served_within_deadline(recorder.to_dicts(), DEADLINE_S)
    assert ok == run.counts["ok"] > 0
    assert late == [], f"{len(late)} of {ok} OKs left after their deadline"
    assert run.counts["busy"] + run.counts["timeout"] > 0, "nothing was shed"
