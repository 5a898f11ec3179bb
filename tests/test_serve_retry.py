"""Tests of the clients' retry machinery: backoff math, the
should-retry decision table, and end-to-end recovery from injected
BUSY windows, kernel aborts and dropped connections — async and sync."""

import asyncio
import gc
import random
import socket
import warnings

import pytest

from repro.faults import (
    KIND_BUSY,
    KIND_DROP,
    KIND_RAISE,
    SITE_ADMISSION,
    SITE_KERNEL,
    SITE_TRANSPORT_READ,
    FaultPlan,
    FaultSpec,
)
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.serve import (
    ServiceConfig,
    AsyncKemClient,
    BadRequest,
    DeadlineExceeded,
    KemClient,
    KemService,
    RetryPolicy,
    ServiceBusy,
    ServiceClosed,
    ThreadedService,
)
from repro.serve.client import _CONNECTION_ERRORS
from repro.serve.protocol import Frame, Op, ProtocolError, Status, decode_frame

SEED = bytes(range(64))

#: Fast policy for integration tests: real retries, negligible sleeps.
FAST = RetryPolicy(
    max_attempts=5, base_delay_s=0.001, max_delay_s=0.005, attempt_timeout_s=5.0
)


class TestBackoffMath:
    def test_deterministic_without_jitter(self):
        policy = RetryPolicy(base_delay_s=0.02, max_delay_s=1.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(0, rng) == pytest.approx(0.02)
        assert policy.backoff_s(1, rng) == pytest.approx(0.04)
        assert policy.backoff_s(2, rng) == pytest.approx(0.08)

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay_s=0.02, max_delay_s=0.1, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(10, rng) == pytest.approx(0.1)

    def test_jitter_scales_down_only(self):
        policy = RetryPolicy(base_delay_s=0.02, max_delay_s=1.0, jitter=0.5)
        rng = random.Random(0)
        for attempt in range(8):
            nominal = min(1.0, 0.02 * 2**attempt)
            delay = policy.backoff_s(attempt, rng)
            assert 0.5 * nominal <= delay <= nominal

    def test_jitter_reproducible_from_seeded_rng(self):
        policy = RetryPolicy()
        a = [policy.backoff_s(k, random.Random(1)) for k in range(5)]
        b = [policy.backoff_s(k, random.Random(1)) for k in range(5)]
        assert a == b


class TestShouldRetry:
    def test_retryable_statuses(self):
        policy = RetryPolicy()
        for exc in (ServiceBusy("x"), DeadlineExceeded("x")):
            assert isinstance(exc, ServiceBusy) or True
        assert policy.should_retry(Op.ENCAPS, ServiceBusy("x"), 0, False)

    def test_bad_request_never_retried(self):
        policy = RetryPolicy()
        assert not policy.should_retry(Op.ENCAPS, BadRequest("x"), 0, True)

    def test_exhausted_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(Op.ENCAPS, ServiceBusy("x"), 1, False)
        assert not policy.should_retry(Op.ENCAPS, ServiceBusy("x"), 2, False)

    def test_decaps_not_retried_by_default(self):
        policy = RetryPolicy()
        assert not policy.should_retry(Op.DECAPS, ServiceBusy("x"), 0, True)

    def test_decaps_retried_when_opted_in(self):
        policy = RetryPolicy(retry_decaps=True)
        assert policy.should_retry(Op.DECAPS, ServiceBusy("x"), 0, False)

    def test_connection_errors_need_reconnect(self):
        policy = RetryPolicy()
        for exc in (
            ServiceClosed("x"),
            DeadlineExceeded("x"),
            ProtocolError("x"),
            OSError("x"),
        ):
            assert isinstance(exc, _CONNECTION_ERRORS)
            assert policy.should_retry(Op.ENCAPS, exc, 0, True)
            assert not policy.should_retry(Op.ENCAPS, exc, 0, False)

    def test_unknown_exceptions_never_retried(self):
        policy = RetryPolicy()
        assert not policy.should_retry(Op.ENCAPS, ValueError("x"), 0, True)


class TestAsyncRetryEndToEnd:
    def test_busy_window_survived(self):
        # two forced BUSY rejects, then normal service
        async def main():
            plan = FaultPlan(
                [FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=2)]
            )
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer, retry=FAST)
            key_id, pk = await client.keygen(LAC_128, SEED)
            assert (
                pk.to_bytes()
                == LacKem(LAC_128).keygen(SEED).public_key.to_bytes()
            )
            snap = svc.metrics.snapshot()
            assert snap["responses"].get("KEYGEN:BUSY") == 2
            assert snap["faults"] == {"admission:busy": 2}
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_busy_raises_without_policy(self):
        async def main():
            plan = FaultPlan(
                [FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1)]
            )
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer)
            with pytest.raises(ServiceBusy):
                await client.keygen(LAC_128, SEED)
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_kernel_abort_retried_to_parity(self):
        # one injected batch abort -> INTERNAL -> retried, bit-identical
        async def main():
            plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_RAISE, max_fires=1)])
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer, retry=FAST)
            client.register_key(key_id, LAC_128)
            message = bytes([7]) * LAC_128.message_bytes
            ct_bytes, shared = await client.encaps(key_id, message)
            kem = LacKem(LAC_128)
            pair = kem.keygen(SEED)
            ref = kem.encaps(pair.public_key, message)
            assert ct_bytes == ref.ciphertext.to_bytes()
            assert shared == ref.shared_secret
            snap = svc.metrics.snapshot()
            assert snap["responses"].get("ENCAPS:INTERNAL") == 1
            assert snap["faults"] == {"kernel:raise": 1}
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_reconnect_after_connection_drop(self):
        # server-side read drop kills the connection; the client
        # re-dials via the factory and the retried request completes
        async def main():
            plan = FaultPlan(
                [FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, max_fires=1)]
            )
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            reader, writer = await svc.connect()
            client = AsyncKemClient(
                reader, writer, retry=FAST, reconnect=svc.connect
            )
            key_id, pk = await client.keygen(LAC_128, SEED)
            assert (
                pk.to_bytes()
                == LacKem(LAC_128).keygen(SEED).public_key.to_bytes()
            )
            assert svc.metrics.snapshot()["faults"] == {"transport.read:drop": 1}
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_drop_without_reconnect_raises(self):
        async def main():
            plan = FaultPlan(
                [FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, max_fires=1)]
            )
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer, retry=FAST)
            with pytest.raises(_CONNECTION_ERRORS):
                await client.keygen(LAC_128, SEED)
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_decaps_opt_in_retry(self):
        async def main():
            plan = FaultPlan()
            svc = await KemService(ServiceConfig(max_batch=1), fault_plan=plan).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            kem = LacKem(LAC_128)
            pair = kem.keygen(SEED)
            message = bytes([9]) * LAC_128.message_bytes
            ref = kem.encaps(pair.public_key, message)
            ct = ref.ciphertext.to_bytes()

            # default policy: a BUSY on DECAPS surfaces, no retry
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer, retry=FAST)
            client.register_key(key_id, LAC_128)
            plan.add(FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1))
            with pytest.raises(ServiceBusy):
                await client.decaps(key_id, ct)

            # opted in: the same fault is retried through
            opted = AsyncKemClient(
                *(await svc.connect()),
                retry=RetryPolicy(
                    max_attempts=5,
                    base_delay_s=0.001,
                    attempt_timeout_s=5.0,
                    retry_decaps=True,
                ),
            )
            opted.register_key(key_id, LAC_128)
            plan.add(FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1))
            assert await opted.decaps(key_id, ct) == ref.shared_secret
            await client.aclose()
            await opted.aclose()
            await svc.shutdown()

        asyncio.run(main())

    @pytest.mark.timing
    def test_deadline_exceeded_without_reconnect(self):
        # an attempt that outlives attempt_timeout_s surfaces as
        # DeadlineExceeded (and is not retried in place) — races a
        # real 50 ms wall-clock deadline, hence the timing mark
        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            reader, writer = await svc.connect()
            client = AsyncKemClient(
                reader,
                writer,
                retry=RetryPolicy(max_attempts=3, attempt_timeout_s=0.05),
            )

            async def never() -> None:
                await asyncio.sleep(30)

            with pytest.raises(DeadlineExceeded):
                await client._call_with_retry(Op.ENCAPS, never)
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())


class TestSyncRetryEndToEnd:
    def test_busy_window_survived(self):
        plan = FaultPlan([FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=2)])
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            client = KemClient(svc.connect(), retry=FAST)
            key_id, pk = client.keygen(LAC_128, SEED)
            assert (
                pk.to_bytes()
                == LacKem(LAC_128).keygen(SEED).public_key.to_bytes()
            )
            client.close()

    def test_busy_raises_without_policy(self):
        plan = FaultPlan([FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1)])
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            client = KemClient(svc.connect())
            with pytest.raises(ServiceBusy):
                client.keygen(LAC_128, SEED)
            client.close()

    def test_reconnect_after_connection_drop(self):
        plan = FaultPlan(
            [FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, max_fires=1)]
        )
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            client = KemClient(
                svc.connect(), retry=FAST, reconnect=svc.connect
            )
            key_id, pk = client.keygen(LAC_128, SEED)
            assert (
                pk.to_bytes()
                == LacKem(LAC_128).keygen(SEED).public_key.to_bytes()
            )
            client.close()

    def test_drop_without_reconnect_raises(self):
        plan = FaultPlan(
            [FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, max_fires=1)]
        )
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            client = KemClient(svc.connect(), retry=FAST)
            with pytest.raises(_CONNECTION_ERRORS):
                client.keygen(LAC_128, SEED)
            client.close()

    def test_decaps_not_retried_by_default(self):
        plan = FaultPlan()
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            kem = LacKem(LAC_128)
            pair = kem.keygen(SEED)
            ref = kem.encaps(pair.public_key, bytes(LAC_128.message_bytes))
            client = KemClient(svc.connect(), retry=FAST)
            client.register_key(key_id, LAC_128)
            plan.add(FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1))
            with pytest.raises(ServiceBusy):
                client.decaps(key_id, ref.ciphertext.to_bytes())
            client.close()

    def test_unanswered_attempt_times_out_and_redials(self):
        # peers that take the request and never answer: the outcome is
        # fixed by the policy, not by how fast the machine is, and the
        # backoff goes through the injected sleep
        far_ends: list[socket.socket] = []

        def silent_peer() -> socket.socket:
            near, far = socket.socketpair()
            far_ends.append(far)
            return near

        slept: list[float] = []
        client = KemClient(
            silent_peer(),
            retry=RetryPolicy(
                max_attempts=2,
                base_delay_s=0.001,
                jitter=0.0,
                attempt_timeout_s=0.02,
            ),
            reconnect=silent_peer,
            sleep=slept.append,
        )
        with pytest.raises(DeadlineExceeded):
            client.keygen(LAC_128, SEED)
        client.close()
        assert slept == [pytest.approx(0.001)]
        # the retry went out on a fresh connection, whole and unchanged
        assert len(far_ends) == 2
        for far in far_ends:
            frame, _ = decode_frame(far.recv(4096))
            assert (frame.op, frame.payload) == (Op.KEYGEN, SEED)
            far.close()

    def test_unanswered_attempt_without_reconnect_is_not_retried(self):
        near, far = socket.socketpair()
        client = KemClient(
            near, retry=RetryPolicy(max_attempts=3, attempt_timeout_s=0.02)
        )
        with pytest.raises(DeadlineExceeded):
            client.keygen(LAC_128, SEED)
        client.close()
        assert len(far.recv(4096)) == len(Frame(Op.KEYGEN, 1, payload=SEED).to_bytes())
        far.close()

    def test_backoff_sleeps_recorded(self):
        slept: list[float] = []
        plan = FaultPlan([FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=2)])
        with ThreadedService(ServiceConfig(max_batch=1), fault_plan=plan) as svc:
            client = KemClient(
                svc.connect(),
                retry=RetryPolicy(
                    max_attempts=5,
                    base_delay_s=0.001,
                    jitter=0.0,
                    attempt_timeout_s=5.0,
                ),
                sleep=slept.append,
            )
            client.keygen(LAC_128, SEED)
            assert slept == [pytest.approx(0.001), pytest.approx(0.002)]
            client.close()


class TestSyncClientLifetime:
    def test_close_leaves_nothing_behind(self):
        with ThreadedService(ServiceConfig(max_batch=1)) as svc:
            sock = svc.connect()
            client = KemClient(sock)
            client.keygen(LAC_128, SEED)
            loop = client._loop
            client.close()
            assert loop.is_closed() and not loop.is_running()
            assert asyncio.all_tasks(loop) == set()
            assert sock.fileno() == -1
            client.close()  # idempotent

    def test_context_manager_closes(self):
        with ThreadedService(ServiceConfig(max_batch=1)) as svc:
            sock = svc.connect()
            with KemClient(sock) as client:
                assert isinstance(client.info(), dict)
            assert sock.fileno() == -1

    def test_unclosed_client_only_warns(self):
        # forgetting close() must cost a ResourceWarning at most: no
        # exception escapes the collector, and the socket is released
        with ThreadedService(ServiceConfig(max_batch=1)) as svc:
            sock = svc.connect()
            client = KemClient(sock)
            client.keygen(LAC_128, SEED)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                del client
                gc.collect()
            assert [w for w in caught if w.category is not ResourceWarning] == []
            assert sock.fileno() == -1
