"""Served cross-key batches and slot-aware dispatch, end to end.

The service batches per ``(op, parameter set, tenant)`` — requests under
different hosted keys ride one kernel call — and hands the backend a
deadline-flushed batch only while it has a free slot; the rest keep
filling.  Everything timing-dependent is pinned with a fake clock and a
backend whose kernels block on a gate the test holds.
"""

import asyncio
import threading

import pytest

from repro.backend import ThreadBackend
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.lac.pke import Ciphertext
from repro.newhope.params import NEWHOPE_512
from repro.serve import KemService, RequestTimedOut, ServiceConfig, ServiceError
from repro.serve.protocol import Status
from repro.trace import InMemoryRecorder, Tracer
from tests.test_serve_service import (
    FakeClock,
    connected_client,
    frozen_service,
    wait_until,
)

KEM = LacKem(LAC_128)


class GatedBackend(ThreadBackend):
    """A thread pool whose kernels wait for the test to open the gate;
    records what each submitted batch held."""

    def __init__(self, workers=1):
        super().__init__(workers=workers)
        self.gate = threading.Event()
        self.batches = []

    def _kernel(self, scheme, params, op, pairs, batch):
        self.batches.append((op, list(pairs or ()), list(batch)))
        assert self.gate.wait(30.0), "the test never opened the gate"
        return super()._kernel(scheme, params, op, pairs, batch)


def service_on(backend, **config):
    """:func:`frozen_service` on an explicit backend instance (there
    ``backend=`` names a backend in the config)."""
    clock = FakeClock()
    config = {"max_wait_us": 1e7, "min_wait_us": 1e7, **config}
    return KemService(ServiceConfig(**config), clock=clock, backend=backend), clock


def flush(svc, clock, seconds=20.0):
    """Let every open queue's (10 s) deadline pass and wake the loop."""
    clock.advance(seconds)
    svc._wake.set()


def flushes(svc):
    return svc.metrics.snapshot()["flushes"]


def run(main):
    asyncio.run(asyncio.wait_for(main(), 60.0))


def host(svc, count, tenant=0):
    """``count`` LAC-128 keys on ``svc``: ``[(key id, scalar pair)]``."""
    out = []
    for k in range(count):
        seed = bytes([k + 1, tenant]) * 32
        out.append((svc.add_keypair(LAC_128, seed=seed, tenant=tenant), KEM.keygen(seed)))
    return out


class TestCrossKeyBatches:
    def test_two_keys_share_one_kernel_call(self):
        """Concurrent callers on two keys: one ``server.batch`` span,
        every reply the scalar KEM's bytes under the caller's own key."""
        recorder = InMemoryRecorder()

        async def main():
            svc, clock = frozen_service(
                max_batch=100, tracer=Tracer(recorder=recorder, enabled=True)
            )
            await svc.start()
            keys = host(svc, 2)
            client = await connected_client(svc, *[(kid, LAC_128) for kid, _ in keys])
            lanes = [keys[i % 2] for i in range(6)]
            messages = [bytes([i, 0xA7] * 16) for i in range(6)]
            calls = [
                asyncio.create_task(client.encaps(kid, message))
                for (kid, _), message in zip(lanes, messages)
            ]
            await wait_until(lambda: svc.pending == 6)
            flush(svc, clock)
            replies = await asyncio.gather(*calls)
            for (_, pair), message, (ct, shared) in zip(lanes, messages, replies):
                want = KEM.encaps(pair.public_key, message)
                assert (ct, shared) == (want.ciphertext.to_bytes(), want.shared_secret)

            # and back: DECAPS across the two secret keys, one tampered
            blobs = [ct for ct, _ in replies]
            bad = Ciphertext.from_bytes(LAC_128, blobs[3])
            blobs[3] = Ciphertext(
                LAC_128, (bad.u + 1) % LAC_128.q, bad.v_compressed
            ).to_bytes()
            calls = [
                asyncio.create_task(client.decaps(kid, blob))
                for (kid, _), blob in zip(lanes, blobs)
            ]
            await wait_until(lambda: svc.pending == 6)
            flush(svc, clock)
            secrets = await asyncio.gather(*calls)
            for (_, pair), blob, got in zip(lanes, blobs, secrets):
                assert got == KEM.decaps(
                    pair.secret_key, Ciphertext.from_bytes(LAC_128, blob)
                )
            assert [s == shared for s, (_, shared) in zip(secrets, replies)] == [
                True, True, True, False, True, True,
            ]
            assert svc.metrics.snapshot()["batch_sizes"] == {"6": 2}
            await client.aclose()
            await svc.shutdown()

        run(main)
        batches = [s for s in recorder.to_dicts() if s["name"] == "server.batch"]
        assert [(s["tags"]["op"], s["tags"]["batch_size"]) for s in batches] == [
            ("ENCAPS", 6), ("DECAPS", 6),
        ]
        roots = [s for s in recorder.to_dicts() if s["name"] == "server.request"]
        assert len({s["tags"]["key_id"] for s in roots}) == 2
        assert {s["tags"]["batch_size"] for s in roots} == {6}

    def test_an_out_of_range_ciphertext_is_refused_alone(self):
        """A DECAPS whose ``u`` holds a byte >= q is answered
        ``BAD_REQUEST`` on admission; the valid requests around it are
        batched and served as if it had never been sent."""

        async def main():
            svc, clock = frozen_service(max_batch=100)
            await svc.start()
            [(kid, pair)] = host(svc, 1)
            client = await connected_client(svc, (kid, LAC_128))
            blobs = [
                KEM.encaps(pair.public_key, bytes([i, 0x5A] * 16)).ciphertext.to_bytes()
                for i in range(6)
            ]
            blobs[2] = b"\xff" + blobs[2][1:]
            calls = [asyncio.create_task(client.decaps(kid, blob)) for blob in blobs]
            await wait_until(lambda: svc.pending == 5)
            flush(svc, clock)
            replies = await asyncio.gather(*calls, return_exceptions=True)
            assert isinstance(replies[2], ServiceError)
            assert replies[2].status is Status.BAD_REQUEST
            assert "out of range" in replies[2].detail
            for lane, (blob, got) in enumerate(zip(blobs, replies)):
                if lane != 2:
                    ct = Ciphertext.from_bytes(LAC_128, blob)
                    assert got == KEM.decaps(pair.secret_key, ct)
            assert svc.metrics.snapshot()["batch_sizes"] == {"5": 1}
            await client.aclose()
            await svc.shutdown()

        run(main)

    def test_a_key_removed_while_its_request_is_held_is_still_answered(self):
        async def main():
            svc, clock = frozen_service(max_batch=100)
            await svc.start()
            (kept, _), (doomed, pair) = host(svc, 2)
            client = await connected_client(svc, (kept, LAC_128), (doomed, LAC_128))
            message = bytes(range(32))
            calls = [
                asyncio.create_task(client.encaps(kept, message)),
                asyncio.create_task(client.encaps(doomed, message)),
            ]
            await wait_until(lambda: svc.pending == 2)
            assert svc.remove_keypair(doomed)
            flush(svc, clock)
            _, (ct, shared) = await asyncio.gather(*calls)
            want = KEM.encaps(pair.public_key, message)
            assert (ct, shared) == (want.ciphertext.to_bytes(), want.shared_secret)
            assert svc.metrics.snapshot()["batch_sizes"] == {"2": 1}
            await client.aclose()
            await svc.shutdown()

        run(main)

    def test_two_tenants_never_share_a_batch(self):
        async def main():
            backend = GatedBackend()
            backend.gate.set()
            svc, clock = service_on(backend, max_batch=100)
            await svc.start()
            mine, theirs = host(svc, 2, tenant=1), host(svc, 2, tenant=2)
            client = await connected_client(
                svc, *[(kid, LAC_128) for kid, _ in mine + theirs]
            )
            calls = [
                asyncio.create_task(client.encaps(kid, tenant=tenant))
                for tenant, hosted in ((1, mine), (2, theirs), (1, mine))
                for kid, _ in hosted
            ]
            await wait_until(lambda: svc.pending == 6)
            flush(svc, clock)
            await asyncio.gather(*calls)
            by_tenant = {1: {p.public_key.to_bytes() for _, p in mine},
                         2: {p.public_key.to_bytes() for _, p in theirs}}
            sizes = []
            for _, pairs, items in backend.batches:
                seen = {p.public_key.to_bytes() for p in pairs}
                assert seen <= by_tenant[1] or seen <= by_tenant[2]
                sizes.append(len(items))
            assert sorted(sizes) == [2, 4]
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)

    def test_a_scheme_whose_batch_is_a_loop_dispatches_singly(self):
        async def main():
            backend = GatedBackend(workers=2)
            backend.gate.set()
            svc, _ = service_on(backend, max_batch=100)
            await svc.start()
            key_id = svc.add_keypair(NEWHOPE_512, seed=bytes(range(64)))
            client = await connected_client(svc, (key_id, NEWHOPE_512))
            # no flush: with a 10 s wait these would sit queued for good
            replies = await asyncio.gather(*[client.encaps(key_id) for _ in range(3)])
            assert len({shared for _, shared in replies}) == 3
            assert [len(items) for _, _, items in backend.batches] == [1, 1, 1]
            assert svc.metrics.snapshot()["flushes"] == {"size": 3}
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)


class TestBatchWhileBusy:
    def test_due_queues_wait_for_a_slot_and_keep_filling(self):
        async def main():
            backend = GatedBackend(workers=1)
            svc, clock = service_on(backend, max_batch=100)
            await svc.start()
            keys = host(svc, 3)
            client = await connected_client(svc, *[(kid, LAC_128) for kid, _ in keys])

            first = asyncio.create_task(client.encaps(keys[0][0]))
            await wait_until(lambda: svc.pending == 1)
            flush(svc, clock)
            await wait_until(lambda: len(backend.batches) == 1)  # the slot is taken

            held = [asyncio.create_task(client.encaps(keys[1][0]))]
            await wait_until(lambda: svc.pending == 2)
            flush(svc, clock)  # due, but the one slot is busy
            await asyncio.sleep(0.05)
            assert len(backend.batches) == 1 and len(svc._scheduler) == 1
            # still open: later arrivals, under other keys too, join it
            held += [asyncio.create_task(client.encaps(kid)) for kid, _ in keys]
            await wait_until(lambda: svc.pending == 5)
            assert len(backend.batches) == 1 and len(svc._scheduler) == 4

            backend.gate.set()  # the kernel resolves, the slot frees
            await asyncio.gather(first, *held)
            assert [len(items) for _, _, items in backend.batches] == [1, 4]
            snap = svc.metrics.snapshot()
            assert snap["flushes"] == {"deadline": 2}
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)

    def test_size_flush_neither_waits_for_a_slot_nor_holds_one(self):
        async def main():
            backend = GatedBackend(workers=1)
            svc, clock = service_on(backend, max_batch=2)
            await svc.start()
            ((key_id, _),) = host(svc, 1)
            client = await connected_client(svc, (key_id, LAC_128))
            calls = [asyncio.create_task(client.encaps(key_id)) for _ in range(4)]
            # both batches are with the backend, the second behind the first
            await wait_until(lambda: flushes(svc) == {"size": 2})
            assert svc._busy == 0 and svc._free_slots() == 1
            backend.gate.set()
            await asyncio.gather(*calls)
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)

    @pytest.mark.parametrize("deadline_s", [None, 15.0])
    def test_flushes_that_take_no_slot_do_not_starve_a_due_queue(self, deadline_s):
        """More limit-1 (NewHope) requests in flight than the backend has
        slots: a LAC queue is still handed over at its deadline — or
        answered ``TIMEOUT`` if it is by then past its own — and runs
        behind the backlog already there, not when the flood ends."""

        async def main():
            backend = GatedBackend(workers=1)
            svc, clock = service_on(backend, max_batch=100)
            await svc.start()
            hope = svc.add_keypair(NEWHOPE_512, seed=bytes(range(64)))
            ((lac, pair),) = host(svc, 1)
            client = await connected_client(svc, (hope, NEWHOPE_512), (lac, LAC_128))
            flood = [asyncio.create_task(client.encaps(hope)) for _ in range(3)]
            await wait_until(lambda: flushes(svc) == {"size": 3})

            message = bytes(range(32))
            quiet = asyncio.create_task(
                client.encaps(lac, message, deadline_s=deadline_s)
            )
            await wait_until(lambda: svc.pending == 4)
            flush(svc, clock)  # no kernel has resolved, none will yet
            await wait_until(lambda: flushes(svc) == {"size": 3, "deadline": 1})
            if deadline_s is None:
                assert svc._busy == 1 and not quiet.done()
                backend.gate.set()
                want = KEM.encaps(pair.public_key, message)
                assert await quiet == (want.ciphertext.to_bytes(), want.shared_secret)
            else:
                with pytest.raises(RequestTimedOut, match="shed: queued"):
                    await quiet
                assert svc._busy == 0
                backend.gate.set()
            await asyncio.gather(*flood)
            lone = [op for op, _, items in backend.batches if len(items) == 1]
            assert len(lone) == (4 if deadline_s is None else 3)
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)

    def test_held_past_its_deadline_is_timed_out_unexecuted(self):
        async def main():
            backend = GatedBackend(workers=1)
            svc, clock = service_on(backend, max_batch=100)
            await svc.start()
            (busy_key, _), (late_key, _) = host(svc, 2)
            client = await connected_client(
                svc, (busy_key, LAC_128), (late_key, LAC_128)
            )
            first = asyncio.create_task(client.encaps(busy_key))
            await wait_until(lambda: svc.pending == 1)
            flush(svc, clock)
            await wait_until(lambda: len(backend.batches) == 1)

            late = asyncio.create_task(client.encaps(late_key, deadline_s=15.0))
            await wait_until(lambda: svc.pending == 2)
            flush(svc, clock)  # 20 s: due and past its own deadline — held
            await asyncio.sleep(0.05)
            assert not late.done() and len(backend.batches) == 1

            backend.gate.set()
            await first
            with pytest.raises(RequestTimedOut, match="shed: queued"):
                await late
            assert len(backend.batches) == 1  # it never reached the backend
            snap = svc.metrics.snapshot()
            assert snap["sheds"] == {"predicted-miss:0:0": 1}
            assert snap["responses"] == {"ENCAPS:OK": 1, "ENCAPS:TIMEOUT": 1}
            assert svc._busy == 0 and svc.pending == 0
            await client.aclose()
            await svc.shutdown()
            backend.close()

        run(main)

    def test_shutdown_drains_held_batches(self):
        async def main():
            backend = GatedBackend(workers=1)
            svc, clock = service_on(backend, max_batch=100)
            await svc.start()
            keys = host(svc, 2)
            client = await connected_client(svc, *[(kid, LAC_128) for kid, _ in keys])
            first = asyncio.create_task(client.encaps(keys[0][0]))
            await wait_until(lambda: svc.pending == 1)
            flush(svc, clock)
            await wait_until(lambda: len(backend.batches) == 1)
            held = [asyncio.create_task(client.encaps(kid)) for kid, _ in keys]
            await wait_until(lambda: svc.pending == 3)
            flush(svc, clock)
            closing = asyncio.create_task(svc.shutdown())
            await asyncio.sleep(0.05)
            backend.gate.set()
            await closing
            replies = await asyncio.gather(first, *held)
            assert len({shared for _, shared in replies}) == 3
            assert svc.metrics.snapshot()["flushes"] == {"deadline": 1, "drain": 1}
            await client.aclose()
            backend.close()

        run(main)


class TestNoWaitServed:
    def test_a_lone_caller_stops_waiting_after_its_first_batch(self):
        async def main():
            svc, clock = frozen_service(max_batch=100)
            await svc.start()
            ((key_id, pair),) = host(svc, 1)
            client = await connected_client(svc, (key_id, LAC_128))
            first = asyncio.create_task(client.encaps(key_id))
            await wait_until(lambda: svc.pending == 1)
            flush(svc, clock)
            await first
            clock.advance(20.0)
            # no flush needed: the queue's last batch left alone, long ago
            message = bytes(range(32))
            ct, shared = await client.encaps(key_id, message)
            want = KEM.encaps(pair.public_key, message)
            assert (ct, shared) == (want.ciphertext.to_bytes(), want.shared_secret)
            assert svc.metrics.snapshot()["flushes"] == {"deadline": 1, "alone": 1}
            await client.aclose()
            await svc.shutdown()

        run(main)
