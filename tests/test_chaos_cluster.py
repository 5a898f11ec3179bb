"""The seeded cluster chaos suite: a fault-injected router over real
member processes, under concurrent resilient clients.

Mirrors ``tests/test_chaos_service.py`` at the cluster tier.  For each
seed (``CHAOS_SEEDS`` env var, default ``101,202,303``) a
:func:`repro.faults.random_plan` arms the router's injection sites —
client-transport faults, forced admission rejects, forward
delay/drop/corrupt, and the ``member.kill`` SIGKILL site — and several
clients hammer one routed endpoint with a fixed, scalar-checkable
workload.  The invariants:

* every accepted request terminates: **bit-identical** to the scalar
  :class:`~repro.lac.kem.LacKem` reference or a **typed**
  :mod:`repro.errors` error — no silent corruption, no lost requests
  (the run sits under a hard deadline, so a swallowed request is a
  failure, not a hang);
* member death is survivable: killed members are ejected, respawned,
  readmitted and rebalanced while load continues;
* accounting is exact: after shutdown, the fault counters exported by
  the router's ``/metrics`` equal ``plan.fired`` — every injected
  fault is visible, none double-counted.

Runs in CI as part of the ``cluster-smoke`` job (one seed per matrix
entry, via ``CHAOS_SEEDS``).
"""

import asyncio
import dataclasses
import os
import time

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.errors import ProtocolError, ServiceError
from repro.faults import SITE_MEMBER_KILL, random_plan
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.serve import RetryPolicy, ServiceConfig
from repro.serve.client import AsyncKemClient

#: The complete typed-failure surface a resilient client may raise once
#: retries exhaust.  Anything else (hang, silent corruption) fails.
TYPED_FAILURES = (ServiceError, ProtocolError, OSError)

#: Matrix seeds; CI pins one per cluster-smoke matrix entry.
CHAOS_SEEDS = [
    int(s)
    for s in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if s.strip()
]

#: Hard wall-clock bound on one seeded run (the no-hang / no-lost-
#: request invariant: every accepted request must terminate in time).
RUN_DEADLINE_S = 120.0

CLIENTS = 4
OPS_PER_CLIENT = 6

CHAOS_RETRY = RetryPolicy(
    max_attempts=6,
    base_delay_s=0.001,
    max_delay_s=0.02,
    attempt_timeout_s=10.0,
    retry_decaps=True,  # the *caller* opts in; the router never does
)


def chaos_config(launch: str = "process") -> ClusterConfig:
    return ClusterConfig(
        members=2,
        launch=launch,
        member_config=ServiceConfig(max_batch=4, request_timeout=5.0),
        replication=2,
        health_interval_s=0.2,
        health_failures=2,
    )


def client_seed(index: int) -> bytes:
    return bytes((index + i) % 256 for i in range(64))


def client_message(index: int, op: int) -> bytes:
    return bytes((index * 31 + op * 7 + i) % 256 for i in range(LAC_128.message_bytes))


class Reference:
    """Scalar ground truth for one client's fixed workload."""

    def __init__(self, index: int):
        self.kem = LacKem(LAC_128)
        self.pair = self.kem.keygen(client_seed(index))

    def expect(self, index: int, op: int) -> tuple[bytes, bytes]:
        result = self.kem.encaps(self.pair.public_key, client_message(index, op))
        return result.ciphertext.to_bytes(), result.shared_secret


async def chaos_client(router: ClusterRouter, index: int, outcomes: list[str]) -> None:
    """One client's workload against the routed endpoint.

    Every completed result is checked bit-for-bit against the scalar
    reference (replica failover must be invisible); every failure must
    be typed.  Every scheduled op appends exactly one outcome — the
    no-lost-request ledger.
    """
    reference = Reference(index)
    client = AsyncKemClient(
        *(await router.connect()), retry=CHAOS_RETRY, reconnect=router.connect
    )
    try:
        try:
            key_id, pk = await client.keygen(LAC_128, client_seed(index))
        except TYPED_FAILURES:
            outcomes.append("keygen-failed")
            return
        assert pk.to_bytes() == reference.pair.public_key.to_bytes()
        for op in range(OPS_PER_CLIENT):
            want_ct, want_ss = reference.expect(index, op)
            try:
                ct_bytes, shared = await client.encaps(
                    key_id, client_message(index, op)
                )
            except TYPED_FAILURES:
                outcomes.append("encaps-failed")
                continue
            assert ct_bytes == want_ct, "routed encaps diverged from scalar"
            assert shared == want_ss, "routed secret diverged from scalar"
            try:
                secret = await client.decaps(key_id, ct_bytes)
            except TYPED_FAILURES:
                outcomes.append("decaps-failed")
                continue
            assert secret == want_ss, "routed decaps diverged from scalar"
            outcomes.append("roundtrip-ok")
    finally:
        try:
            await client.aclose()
        except TYPED_FAILURES:
            pass  # chaos may have taken the last connection down


@pytest.mark.timing
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_cluster_chaos_storm(seed):
    async def main():
        plan = random_plan(seed, intensity=0.12)
        router = await ClusterRouter(chaos_config(), fault_plan=plan).start()
        outcomes: list[str] = []
        await asyncio.gather(
            *[chaos_client(router, i, outcomes) for i in range(CLIENTS)]
        )

        # the cluster survived: a fresh connection is served.  It is
        # still under the fault plan, whose draws are one fixed sequence
        # per seed and site; where in it this request lands depends on
        # how many draws the storm used, which is timing.  Seed 303's
        # ``transport.read`` draws 144-153 fail nine times in ten and the
        # storm ends anywhere from draw 112 to 157, so the budget here outlasts such a
        # window instead of racing it
        survivor = AsyncKemClient(
            *(await router.connect()),
            retry=dataclasses.replace(CHAOS_RETRY, max_attempts=16),
            reconnect=router.connect,
        )
        snap = await survivor.info()
        assert "cluster" in snap
        await survivor.aclose()
        counters = dict(router.counters)
        await router.shutdown()

        # progress: the fault plan did not wipe out the workload
        assert outcomes.count("roundtrip-ok") > 0
        # the ledger balances: a client whose keygen failed logs one
        # outcome and stops; every other client logs exactly one
        # terminal outcome per scheduled op — no lost requests
        keygen_failures = outcomes.count("keygen-failed")
        assert len(outcomes) == (
            keygen_failures + (CLIENTS - keygen_failures) * OPS_PER_CLIENT
        ), outcomes

        # every injected member kill is visible in the cluster counters
        kills = plan.fired.get((SITE_MEMBER_KILL, "kill"), 0)
        assert counters.get("member_kills", 0) == kills

        # accounting: the router's metrics saw every injected fault,
        # no more, no less (compared post-shutdown, race-free)
        fired = {
            f"{site}:{kind}": count
            for (site, kind), count in sorted(plan.fired.items())
        }
        assert router.metrics.snapshot()["faults"] == fired
        assert sum(fired.values()) == plan.total_fired()
        return outcomes

    asyncio.run(asyncio.wait_for(main(), RUN_DEADLINE_S))


@pytest.mark.timing
@pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
def test_explicit_member_kill_mid_load(seed):
    """SIGKILL a process member while load is in flight: requests keep
    terminating (bit-identical or typed), the member is ejected,
    respawned, readmitted, and the key set rebalances back to full
    replication."""

    async def main():
        router = await ClusterRouter(chaos_config()).start()
        client = AsyncKemClient(
            *(await router.connect()), retry=CHAOS_RETRY, reconnect=router.connect
        )
        reference = Reference(0)
        key_id, pk = await client.keygen(LAC_128, client_seed(0))
        assert pk.to_bytes() == reference.pair.public_key.to_bytes()

        async def load(results: list[str]) -> None:
            for op in range(OPS_PER_CLIENT * 2):
                want_ct, want_ss = reference.expect(0, op)
                try:
                    ct, shared = await client.encaps(key_id, client_message(0, op))
                except TYPED_FAILURES:
                    results.append("typed")
                    continue
                assert (ct, shared) == (want_ct, want_ss)
                results.append("ok")

        results: list[str] = []
        load_task = asyncio.create_task(load(results))
        await asyncio.sleep(0.05)  # let the load get in flight
        victim = router._placement_chain(router._keys[key_id])[0]
        router.members[victim].kill()  # true SIGKILL, mid-load
        await load_task

        # the ledger balances, and chaos did not wipe out the workload
        assert len(results) == OPS_PER_CLIENT * 2
        assert results.count("ok") > 0

        # recovery: ejected -> respawned -> readmitted -> re-replicated
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (
                router.counters.get("members_readmitted", 0) >= 1
                and len(router.hosted_keys().get(key_id, {})) == 2
            ):
                break
            await asyncio.sleep(0.1)
        assert router.counters["members_ejected"] >= 1
        assert router.counters["member_restarts"] >= 1
        assert router.counters["members_readmitted"] >= 1
        assert len(router.hosted_keys()[key_id]) == 2

        # post-recovery traffic is still bit-identical to scalar
        want_ct, want_ss = reference.expect(0, 99)
        ct, shared = await client.encaps(key_id, client_message(0, 99))
        assert (ct, shared) == (want_ct, want_ss)
        assert await client.decaps(key_id, ct) == want_ss
        await client.aclose()
        await router.shutdown()

    asyncio.run(asyncio.wait_for(main(), RUN_DEADLINE_S))
