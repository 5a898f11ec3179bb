"""End-to-end tests of request tracing through the KEM service.

Everything here drives the real service over the in-process transport
with a fake clock, a deterministic id source and an in-memory span
recorder, and asserts the span topology the observability layer
promises: a ``server.request`` root per request, telescoping stage
spans that sum to it exactly (on success, reject, timeout and kernel
failure alike), wire propagation of the client's trace context, fault
annotations on the kernel span, and the per-stage metrics feed.
"""

import asyncio

import pytest

from repro.faults.plan import KIND_RAISE, SITE_KERNEL, FaultPlan, FaultSpec
from repro.lac.params import LAC_128
from repro.serve import (
    ServiceConfig,
    AsyncKemClient,
    KemClient,
    KemService,
    RequestTimedOut,
    ServiceBusy,
    ServiceError,
    ThreadedService,
)
from repro.trace import InMemoryRecorder, Tracer
from tests.test_serve_service import SEED, connected_client, frozen_service

STAGE_NAMES = {"admission", "queue", "dispatch", "kernel", "reply"}


def counting_ids():
    """Deterministic id_source: 1, 2, 3, ... regardless of bit width."""
    state = {"n": 0}

    def source(bits):
        state["n"] += 1
        return state["n"]

    return source


def make_tracer():
    rec = InMemoryRecorder()
    return Tracer(recorder=rec, id_source=counting_ids()), rec


def roots(rec):
    return [s for s in rec.spans if s.name == "server.request"]


def stages_of(rec, root):
    return [
        s
        for s in rec.spans
        if s.parent_id == root.span_id and s.name in STAGE_NAMES
    ]


def assert_telescopes(rec, root):
    """The root's stage spans must tile it exactly, in path order."""
    stages = stages_of(rec, root)
    assert sum(s.duration_s for s in stages) == pytest.approx(
        root.duration_s, abs=1e-9
    )
    starts = [s.start for s in stages]
    assert starts == sorted(starts)
    assert stages[0].start == root.start
    last = stages[-1]
    assert last.start + last.duration_s == pytest.approx(
        root.start + root.duration_s, abs=1e-9
    )


async def wait_for_pending(svc, n):
    # also wait out a set ``_wake``: until the flush loop has polled the
    # newest queue, a fake-clock jump made now would flush that queue
    # alone, and its batchmate would then wait on a frozen clock forever
    for _ in range(1000):
        if svc.pending == n and not svc._wake.is_set():
            return
        await asyncio.sleep(0.001)
    raise AssertionError(f"service never reached {n} pending requests")


class TestStageSpans:
    def test_stage_spans_telescope_to_the_root(self):
        async def main():
            tracer, rec = make_tracer()
            svc, clock = frozen_service(max_batch=2, tracer=tracer)
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))

            # stagger two requests 1 fake-second apart; the second one
            # fills the batch and size-flushes both
            first = asyncio.create_task(client.encaps(key_id))
            await wait_for_pending(svc, 1)
            clock.advance(1.0)
            await client.encaps(key_id)
            await first
            await client.aclose()
            await svc.shutdown()

            assert len(roots(rec)) == 2
            for root in roots(rec):
                assert {s.name for s in stages_of(rec, root)} == STAGE_NAMES
                assert_telescopes(rec, root)
                assert root.tags["op"] == "ENCAPS"
                assert root.tags["status"] == "OK"
                assert root.tags["key_id"] == key_id
                assert root.tags["batch_size"] == 2
                assert root.tags["trigger"] == "size"

            # the request that waited out the stagger owns the 1 s gap,
            # and it sits entirely in its queue stage
            by_wait = sorted(roots(rec), key=lambda s: s.duration_s)
            assert by_wait[0].duration_s == pytest.approx(0.0, abs=1e-9)
            assert by_wait[1].duration_s == pytest.approx(1.0)
            queue = next(
                s for s in stages_of(rec, by_wait[1]) if s.name == "queue"
            )
            assert queue.duration_s == pytest.approx(1.0)

            batch_spans = [s for s in rec.spans if s.name == "server.batch"]
            assert len(batch_spans) == 1
            assert batch_spans[0].tags["batch_size"] == 2

        asyncio.run(main())

    def test_wire_propagation_stitches_client_and_server_spans(self):
        async def main():
            server_tracer, server_rec = make_tracer()
            client_tracer, client_rec = make_tracer()
            svc = await KemService(ServiceConfig(max_batch=1), tracer=server_tracer).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            reader, writer = await svc.connect()
            client = AsyncKemClient(reader, writer, tracer=client_tracer)
            client.register_key(key_id, LAC_128)
            await client.encaps(key_id)
            await client.aclose()
            await svc.shutdown()

            (client_span,) = client_rec.spans
            assert client_span.name == "client.request"
            assert client_span.tags == {"op": "ENCAPS", "status": "OK"}

            (root,) = roots(server_rec)
            # same trace on both sides; the server root hangs off the
            # client span that caused it
            assert root.trace_id == client_span.trace_id
            assert root.parent_id == client_span.span_id
            for stage in stages_of(server_rec, root):
                assert stage.trace_id == client_span.trace_id

        asyncio.run(main())

    def test_server_mints_a_trace_for_untraced_clients(self):
        async def main():
            tracer, rec = make_tracer()
            svc = await KemService(ServiceConfig(max_batch=1), tracer=tracer).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            await client.encaps(key_id)
            await client.aclose()
            await svc.shutdown()

            (root,) = roots(rec)
            assert root.parent_id is None  # no inbound context to attach to
            assert root.trace_id != 0

        asyncio.run(main())


class TestPartialPaths:
    def test_rejected_requests_emit_admission_only_spans(self):
        async def main():
            tracer, rec = make_tracer()
            svc = await KemService(ServiceConfig(high_watermark=0), tracer=tracer).start()
            client = await connected_client(svc, (1, LAC_128))
            with pytest.raises(ServiceBusy):
                await client.encaps(1)
            await client.aclose()
            await svc.shutdown()

            (root,) = roots(rec)
            assert root.tags["status"] == "BUSY"
            stages = stages_of(rec, root)
            assert [s.name for s in stages] == ["admission"]
            assert_telescopes(rec, root)
            assert set(svc.metrics.snapshot()["stage_us"]) == {"admission"}

        asyncio.run(main())

    def test_expired_requests_close_the_open_stage_at_reply(self):
        async def main():
            tracer, rec = make_tracer()
            svc, clock = frozen_service(
                max_batch=2, request_timeout=5.0, tracer=tracer
            )
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))

            expired = asyncio.create_task(client.encaps(key_id))
            await wait_for_pending(svc, 1)
            clock.advance(40.0)  # past the 5 s request timeout
            await client.encaps(key_id)  # fills the batch, flushes both
            with pytest.raises(RequestTimedOut):
                await expired
            await client.aclose()
            await svc.shutdown()

            by_status = {r.tags["status"]: r for r in roots(rec)}
            timed_out = by_status["TIMEOUT"]
            # never reached the kernel: admission/queue, then straight
            # to reply — and the tiling stays exact
            assert {s.name for s in stages_of(rec, timed_out)} == {
                "admission",
                "queue",
                "reply",
            }
            assert_telescopes(rec, timed_out)
            assert timed_out.duration_s == pytest.approx(40.0)
            # its batchmate executed normally with the full stage set
            ok = by_status["OK"]
            assert {s.name for s in stages_of(rec, ok)} == STAGE_NAMES
            assert_telescopes(rec, ok)

        asyncio.run(main())

    def test_kernel_fault_annotations_land_on_the_kernel_span(self):
        async def main():
            tracer, rec = make_tracer()
            plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_RAISE, max_fires=1)])
            svc = await KemService(
                ServiceConfig(max_batch=1), tracer=tracer, fault_plan=plan
            ).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            with pytest.raises(ServiceError):
                await client.encaps(key_id)
            await client.aclose()
            await svc.shutdown()

            (root,) = roots(rec)
            assert root.tags["status"] == "INTERNAL"
            assert_telescopes(rec, root)
            (kernel,) = [s for s in rec.spans if s.name == "kernel"]
            assert kernel.tags["fault_site"] == SITE_KERNEL
            assert kernel.tags["fault_kind"] == KIND_RAISE
            # the batch-level span carries the same attribution
            (batch_span,) = [s for s in rec.spans if s.name == "server.batch"]
            assert batch_span.tags["fault_site"] == SITE_KERNEL

        asyncio.run(main())


class TestMetricsAndOffSwitch:
    def test_stage_timings_feed_the_metrics_and_info(self):
        async def main():
            tracer, _ = make_tracer()
            svc = await KemService(ServiceConfig(max_batch=1), tracer=tracer).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            await client.encaps(key_id)
            info = await client.info()
            await client.aclose()
            await svc.shutdown()

            assert set(info["stage_us"]) == STAGE_NAMES
            assert info["stage_us"]["kernel"]["count"] == 1
            text = svc.metrics.render_text()
            assert "kem_stage_seconds" in text
            assert 'stage="kernel"' in text

        asyncio.run(main())

    def test_disabled_tracer_records_nothing(self):
        async def main():
            rec = InMemoryRecorder()
            tracer = Tracer(recorder=rec, enabled=False)
            svc = await KemService(ServiceConfig(max_batch=1), tracer=tracer).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            await client.encaps(key_id)
            await client.aclose()
            await svc.shutdown()

            assert rec.spans == []
            assert svc.metrics.snapshot()["stage_us"] == {}
            assert "kem_stage_seconds" not in svc.metrics.render_text()

        asyncio.run(main())


class TestSyncClient:
    def test_sync_client_traces_through_threaded_service(self):
        server_tracer, server_rec = make_tracer()
        client_tracer, client_rec = make_tracer()
        with ThreadedService(ServiceConfig(max_batch=1), tracer=server_tracer) as ts:
            key_id = ts.add_keypair(LAC_128, seed=SEED)
            client = KemClient(ts.connect(), tracer=client_tracer)
            client.register_key(key_id, LAC_128)
            ct_bytes, shared = client.encaps(key_id)
            client.close()
        assert ct_bytes and shared

        (client_span,) = client_rec.spans
        assert client_span.name == "client.request"
        (root,) = roots(server_rec)
        assert root.trace_id == client_span.trace_id
        assert root.parent_id == client_span.span_id
        assert {s.name for s in stages_of(server_rec, root)} == STAGE_NAMES
