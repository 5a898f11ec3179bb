"""End-to-end tests of the KEM service: parity through the protocol,
backpressure, timeouts, deadline flushes and graceful drain.

Timing-sensitive behaviours (deadline flush, per-request timeout,
backpressure windows) are pinned with a fake clock and huge real
deadlines, so nothing here races the wall clock; transport-level tests
run over the in-process socketpair transport.
"""

import asyncio
import dataclasses
import inspect
import math
import threading

import pytest

import repro.batch
import repro.schemes
import repro.serve.server as server_module
from repro.backend import InlineBackend, KemBackend, ProcessBackend, ThreadBackend
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_256
from repro.serve import (
    ServiceConfig,
    AsyncKemClient,
    BadRequest,
    KemClient,
    KemService,
    KeyNotFound,
    RequestTimedOut,
    ServiceBusy,
    ServiceDraining,
    TenantQuota,
    ThreadedService,
)
from repro.schemes import wire_id_for_params
from repro.serve.protocol import Frame, Op, Status, pack_encaps_request
from repro.serve.scheduler import (
    AdaptiveDeadlinePolicy,
    DeficitRoundRobin,
    MicroBatchScheduler,
)
from repro.serve.slo import KernelEstimator

SEED = bytes(range(64))


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


def frozen_service(**kwargs) -> tuple[KemService, FakeClock]:
    """A service whose scheduler deadlines never fire on their own:
    fake clock plus 10-second wait bounds.  Config fields go into
    :class:`ServiceConfig`; anything else (tracer, fault_plan, ...)
    passes straight through to :class:`KemService`."""
    clock = FakeClock()
    kwargs.setdefault("max_wait_us", 10_000_000.0)
    kwargs.setdefault("min_wait_us", 10_000_000.0)
    config_fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    config_kwargs = {k: v for k, v in kwargs.items() if k in config_fields}
    extra = {k: v for k, v in kwargs.items() if k not in config_fields}
    svc = KemService(ServiceConfig(**config_kwargs), clock=clock, **extra)
    return svc, clock


async def wait_until(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` until true; fail loudly instead of flaking.

    The deadline is generous (wall-clock ten seconds for conditions
    that normally hold within microseconds) because it only bounds the
    *failure* case — passing tests never wait longer than the
    condition takes."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"condition never became true: {predicate}")
        await asyncio.sleep(0.001)


async def connected_client(svc: KemService, *key_ids_params) -> AsyncKemClient:
    reader, writer = await svc.connect()
    client = AsyncKemClient(reader, writer)
    for key_id, params in key_ids_params:
        client.register_key(key_id, params)
    return client


class TestProtocolParity:
    """Served results must be bit-identical to the scalar KEM."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_full_path_matches_scalar(self, params):
        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            client = await connected_client(svc)
            key_id, pk = await client.keygen(params, SEED)

            kem = LacKem(params)
            ref_pair = kem.keygen(SEED)
            assert pk.to_bytes() == ref_pair.public_key.to_bytes()

            message = bytes([0x5A, 0xC0]) * (params.message_bytes // 2)
            ct_bytes, shared = await client.encaps(key_id, message)
            ref = kem.encaps(ref_pair.public_key, message)
            assert ct_bytes == ref.ciphertext.to_bytes()
            assert shared == ref.shared_secret

            assert await client.decaps(key_id, ct_bytes) == kem.decaps(
                ref_pair.secret_key, ref.ciphertext
            )
            # tampered ciphertext: implicit rejection, also bit-identical
            tampered = bytes([ct_bytes[0] ^ 1]) + ct_bytes[1:]
            from repro.lac.pke import Ciphertext

            assert await client.decaps(key_id, tampered) == kem.decaps(
                ref_pair.secret_key, Ciphertext.from_bytes(params, tampered)
            )
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_batched_responses_match_scalar(self):
        # many concurrent clients; every response checked against scalar
        async def main():
            svc = await KemService(ServiceConfig(max_batch=8)).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            messages = [bytes([i]) * LAC_128.message_bytes for i in range(24)]
            results = await asyncio.gather(
                *[client.encaps(key_id, m) for m in messages]
            )
            kem = LacKem(LAC_128)
            pair = kem.keygen(SEED)
            for message, (ct_bytes, shared) in zip(messages, results):
                ref = kem.encaps(pair.public_key, message)
                assert ct_bytes == ref.ciphertext.to_bytes()
                assert shared == ref.shared_secret
            snap = svc.metrics.snapshot()
            assert sum(
                int(s) * c for s, c in snap["batch_sizes"].items()
            ) == 24
            # compute dwarfs frame reads, so requests must coalesce
            assert snap["mean_batch_size"] > 1
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())


class TestBatchingDeterministic:
    """White-box: frames fed straight to the service, fake clock."""

    def test_flush_on_size_through_service(self):
        async def main():
            svc, _ = frozen_service(max_batch=4)
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            responses: list[Frame] = []
            done = asyncio.Event()

            async def respond(frame: Frame) -> None:
                responses.append(frame)
                if len(responses) == 4:
                    done.set()

            for i in range(4):
                await svc._handle_frame(
                    Frame(
                        Op.ENCAPS, i, wire_id_for_params(LAC_128),
                        payload=pack_encaps_request(key_id),
                    ),
                    respond,
                )
            await asyncio.wait_for(done.wait(), 30)
            assert [f.status for f in responses] == [Status.OK] * 4
            snap = svc.metrics.snapshot()
            assert snap["batch_sizes"] == {"4": 1}
            assert snap["flushes"] == {"size": 1}
            await svc.shutdown()

        asyncio.run(main())

    def test_flush_on_deadline_through_service(self):
        async def main():
            clock = FakeClock()
            svc = KemService(
                ServiceConfig(max_batch=100, max_wait_us=2000.0, min_wait_us=50.0),
                clock=clock,
            )
            await svc.start()
            key_a = svc.add_keypair(LAC_128, seed=SEED)
            key_b = svc.add_keypair(LAC_128)
            responses: list[Frame] = []
            got_one = asyncio.Event()

            async def respond(frame: Frame) -> None:
                responses.append(frame)
                got_one.set()

            await svc._handle_frame(
                Frame(
                    Op.ENCAPS, 1, wire_id_for_params(LAC_128),
                    payload=pack_encaps_request(key_a),
                ),
                respond,
            )
            assert not responses  # parked: batch far from full
            clock.advance(1.0)  # sail past the 2 ms deadline
            # a second key's arrival wakes the flusher, which must
            # notice key A's expired deadline
            await svc._handle_frame(
                Frame(
                    Op.ENCAPS, 2, wire_id_for_params(LAC_128),
                    payload=pack_encaps_request(key_b),
                ),
                respond,
            )
            await asyncio.wait_for(got_one.wait(), 30)
            assert responses[0].request_id == 1
            assert responses[0].status is Status.OK
            assert svc.metrics.snapshot()["flushes"]["deadline"] == 1
            await svc.shutdown()  # drains key B's parked request
            assert {f.request_id for f in responses} == {1, 2}

        asyncio.run(main())


class TestBackpressure:
    def test_busy_beyond_high_watermark(self):
        async def main():
            svc, _ = frozen_service(max_batch=100, high_watermark=4)
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))

            parked = [
                asyncio.create_task(client.encaps(key_id)) for _ in range(4)
            ]
            # requests are accepted asynchronously
            await wait_until(lambda: svc.pending >= 4)
            assert svc.pending == 4

            with pytest.raises(ServiceBusy):
                await client.encaps(key_id)
            assert svc.pending == 4  # the rejected request never queued

            await svc.shutdown()  # drain serves the four parked requests
            results = await asyncio.gather(*parked)
            assert len({shared for _, shared in results}) == 4
            snap = svc.metrics.snapshot()
            assert snap["responses"]["ENCAPS:BUSY"] == 1
            assert snap["responses"]["ENCAPS:OK"] == 4
            await client.aclose()

        asyncio.run(main())

    def test_shutting_down_rejects_new_work(self):
        async def main():
            svc, _ = frozen_service()
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            svc._draining = True
            with pytest.raises(ServiceDraining):
                await client.encaps(key_id)
            svc._draining = False
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())


class TestTimeouts:
    def test_expired_requests_get_timeout_not_execution(self):
        async def main():
            svc, clock = frozen_service(max_batch=100, request_timeout=5.0)
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            parked = [
                asyncio.create_task(client.encaps(key_id)) for _ in range(3)
            ]
            await wait_until(lambda: svc.pending == 3)
            clock.advance(10.0)  # > request_timeout while still queued
            await svc.shutdown()  # drain dispatch finds them expired
            results = await asyncio.gather(*parked, return_exceptions=True)
            assert all(isinstance(r, RequestTimedOut) for r in results)
            snap = svc.metrics.snapshot()
            assert snap["responses"]["ENCAPS:TIMEOUT"] == 3
            assert "ENCAPS:OK" not in snap["responses"]
            await client.aclose()

        asyncio.run(main())


class TestDrain:
    def test_shutdown_serves_all_accepted_requests(self):
        async def main():
            svc, _ = frozen_service(max_batch=100)
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))
            parked = [
                asyncio.create_task(client.encaps(key_id)) for _ in range(5)
            ]
            await wait_until(lambda: svc.pending == 5)
            await svc.shutdown()
            results = await asyncio.gather(*parked)
            assert len(results) == 5
            assert svc.pending == 0
            snap = svc.metrics.snapshot()
            assert snap["flushes"] == {"drain": 1}
            assert snap["batch_sizes"] == {"5": 1}
            assert snap["queue_depth"] == 0
            # decapsulating the drained ciphertexts still works offline
            kem = LacKem(LAC_128)
            pair = kem.keygen(SEED)
            from repro.lac.pke import Ciphertext

            for ct_bytes, shared in results:
                assert (
                    kem.decaps(
                        pair.secret_key, Ciphertext.from_bytes(LAC_128, ct_bytes)
                    )
                    == shared
                )

        asyncio.run(main())


class TestRequestValidation:
    def test_error_statuses(self):
        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = await connected_client(svc, (key_id, LAC_128))

            with pytest.raises(KeyNotFound):
                await client.decaps(999, b"x")  # client-side registry
            client.register_key(999, LAC_128)
            with pytest.raises(KeyNotFound):  # server-side lookup
                await client.decaps(999, b"\0" * LAC_128.ciphertext_bytes)
            with pytest.raises(BadRequest):  # wrong message size
                await client.encaps(key_id, b"short")
            with pytest.raises(BadRequest):  # wrong ciphertext size
                await client.decaps(key_id, b"\0" * 10)
            with pytest.raises(BadRequest):  # key/param-set mismatch
                client.register_key(key_id, LAC_256)
                await client.encaps(key_id)
            client.register_key(key_id, LAC_128)
            with pytest.raises(BadRequest):  # malformed keygen seed
                await client.keygen(LAC_128, b"\x01" * 7)

            # the connection survives every rejected request
            ct, shared = await client.encaps(key_id)
            assert await client.decaps(key_id, ct) == shared
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_garbage_connection_dropped_service_survives(self):
        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            reader, writer = await svc.connect()
            writer.write(b"this is not a frame at all....")
            await writer.drain()
            assert await reader.read() == b""  # server hung up
            writer.close()

            client = await connected_client(svc, (key_id, LAC_128))
            ct, shared = await client.encaps(key_id)
            assert await client.decaps(key_id, ct) == shared
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())


class TestConstructorSurface:
    @pytest.mark.parametrize("kwarg", ["definitely_not_a_kwarg", "max_batch", "executor"])
    def test_unknown_kwargs_raise(self, kwarg):
        # tuning goes through ServiceConfig; the flat-kwarg shims are gone
        for cls in (KemService, ThreadedService):
            with pytest.raises(TypeError):
                cls(**{kwarg: 1})

    def test_config_fields_are_pinned(self):
        # a new knob is a visible diff here, not a silent addition
        assert {f.name for f in dataclasses.fields(ServiceConfig)} == {
            "max_batch",
            "max_wait_us",
            "min_wait_us",
            "high_watermark",
            "request_timeout",
            "backend",
            "backend_workers",
            "default_deadline_s",
            "tier_watermarks",
            "tenant_quotas",
        }

    def test_constructor_settings_are_pinned(self):
        # the serving core's tuning constants are constants: a setting
        # that comes back as a constructor parameter is a visible diff
        def params(cls):
            return list(inspect.signature(cls).parameters)

        assert params(AdaptiveDeadlinePolicy) == ["max_wait_us", "min_wait_us"]
        assert params(DeficitRoundRobin) == []
        assert params(KernelEstimator) == []
        assert params(MicroBatchScheduler) == [
            "max_batch",
            "policy",
            "priority_of",
            "tenant_of",
        ]
        assert params(KemBackend) == []
        assert params(InlineBackend) == []
        assert params(ThreadBackend) == ["workers"]
        assert params(ProcessBackend) == ["workers", "warm_params"]
        assert repro.schemes.__all__ == [
            "KemScheme",
            "LAC_SCHEME",
            "LacScheme",
            "NEWHOPE_SCHEME",
            "NewHopeScheme",
            "PARAM_NONE",
            "ParamId",
            "SchemeId",
            "all_schemes",
            "params_for_wire_id",
            "resolve",
            "scheme_of",
            "wire_id_for_params",
        ]
        assert repro.batch.__all__ == [
            "bch_encode_many",
            "encode_many",
            "parity_matrix",
            "encaps_many",
            "decaps_many",
            "keygen_many",
            "key_fingerprints",
            "warm_cache",
            "gen_a_vec",
            "sample_secret_rows",
        ]

    def test_scheme_table_leaves_param_none_free(self):
        # the wire param byte is scheme_id << 4 | index: scheme 15 would
        # claim PARAM_NONE (0xFF) and a 17th set would spill its nibble
        schemes = repro.schemes.all_schemes()
        assert [s.scheme_id for s in schemes] == [0, 1]
        for scheme in schemes:
            assert 0 <= scheme.scheme_id < 15
            assert len(scheme.param_sets) <= 16

    def test_wait_bounds_are_ordered_at_config_time(self):
        with pytest.raises(ValueError, match="min_wait_us"):
            ServiceConfig(min_wait_us=3000.0)  # above the 2000 us default max
        with pytest.raises(ValueError, match="min_wait_us"):
            ServiceConfig(max_wait_us=100.0, min_wait_us=200.0)
        assert ServiceConfig(max_wait_us=100.0, min_wait_us=100.0).min_wait_us == 100.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "max_wait_us",
            "min_wait_us",
            "request_timeout",
            "default_deadline_s",
        ],
    )
    def test_non_finite_bounds_are_rejected(self, field, value):
        # NaN slips past every ordered comparison: a NaN max_wait_us gave
        # fresh queues a NaN deadline that poll never found due
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ServiceConfig(**{field: value})


class TestInfo:
    def test_service_block_is_pinned(self):
        """The INFO ``service`` block's key set and values on a fake
        clock.  The benchmark reads ``max_batch``, ``ewma_gap_us``,
        ``workers`` and ``backend`` from it, so a rename must fail here
        first."""

        async def main():
            svc, clock = frozen_service(
                max_batch=1,
                high_watermark=100,
                tier_watermarks=(1.0, 0.5),
                request_timeout=5.0,
                default_deadline_s=2.0,
                backend="inline",
                tenant_quotas=(TenantQuota(tenant=3, max_keys=4, ops_per_s=10.0),),
            )
            await svc.start()
            key_id = svc.add_keypair(LAC_128, seed=SEED, tenant=3)
            clock.advance(2.5)
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, LAC_128)
            await client.encaps(key_id, tenant=3)
            service = (await client.info())["service"]
            await client.aclose()
            await svc.shutdown()
            return service

        service = asyncio.run(main())
        assert service == {
            "uptime_s": 2.5,
            "draining": False,
            "pending": 0,
            "hosted_keys": 1,
            "max_batch": 1,
            "max_wait_us": 10_000_000.0,
            "min_wait_us": 10_000_000.0,
            "ewma_gap_us": None,
            "high_watermark": 100,
            "request_timeout_s": 5.0,
            "backend": "inline",
            "workers": 1,
            "default_deadline_s": 2.0,
            "tier_limits": [100, 50],
            "estimator": {str(("ENCAPS", wire_id_for_params(LAC_128))): 0.0},
            "schemes": {
                "lac": ["LAC-128", "LAC-192", "LAC-256"],
                "newhope": ["NewHope512", "NewHope1024"],
            },
            "sessions": 0,
            "tenants": {
                "3": {
                    "keys": 1,
                    "inflight": 0,
                    "sessions": 0,
                    "tokens": 9.0,
                    "max_keys": 4,
                    "max_inflight": None,
                    "max_sessions": None,
                    "ops_per_s": 10.0,
                }
            },
            "fair_share": {"3": 0.0},
        }


class TestTransports:
    def test_threaded_service_and_sync_client(self):
        with ThreadedService(ServiceConfig(max_batch=4, max_wait_us=500.0)) as svc:
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            with KemClient(svc.connect()) as client:
                client.register_key(key_id, LAC_128)
                message = b"\xa5" * LAC_128.message_bytes
                ct, shared = client.encaps(key_id, message)
                kem = LacKem(LAC_128)
                pair = kem.keygen(SEED)
                ref = kem.encaps(pair.public_key, message)
                assert ct == ref.ciphertext.to_bytes()
                assert shared == ref.shared_secret
                assert client.decaps(key_id, ct) == shared
                info = client.info()
                assert info["service"]["hosted_keys"] == 1
                assert "kem_requests_total" in client.info(text=True)

    def test_tcp_transport(self):
        with ThreadedService(ServiceConfig(max_batch=2, max_wait_us=500.0)) as svc:
            port = svc.serve_tcp("127.0.0.1", 0)
            with KemClient.open_tcp("127.0.0.1", port) as client:
                key_id, _pk = client.keygen(LAC_128)
                ct, shared = client.encaps(key_id)
                assert client.decaps(key_id, ct) == shared

    @pytest.mark.parametrize("failure", ["backend", "constructor"])
    def test_threaded_start_failure_raises_in_the_caller(self, failure, monkeypatch):
        # the service is built and started on the loop thread; a failure
        # there must surface from start(), not leave it waiting forever.
        # start() runs in a helper thread so a hang fails, not blocks
        if failure == "backend":

            def broken_backend(name, workers=None):
                raise RuntimeError(f"{name} backend creation failed")

            monkeypatch.setattr(server_module, "create_backend", broken_backend)
            expected = pytest.raises(RuntimeError, match="thread backend creation")
        else:

            def broken_scheduler(**kwargs):
                raise RuntimeError("scheduler construction failed")

            monkeypatch.setattr(server_module, "MicroBatchScheduler", broken_scheduler)
            expected = pytest.raises(RuntimeError, match="scheduler construction")
        threaded = ThreadedService()
        raised: list[BaseException] = []

        def start() -> None:
            try:
                threaded.start()
            except BaseException as exc:  # noqa: BLE001 - inspected below
                raised.append(exc)

        helper = threading.Thread(target=start, daemon=True)
        helper.start()
        helper.join(timeout=20.0)
        assert not helper.is_alive(), "start() hung after the service failed"
        with expected:
            raise raised[0]
        assert threaded.service is None

        # the failure left nothing behind: the same host starts cleanly
        monkeypatch.undo()
        with threaded:
            key_id = threaded.add_keypair(LAC_128, seed=SEED)
            with KemClient(threaded.connect()) as client:
                client.register_key(key_id, LAC_128)
                ct, shared = client.encaps(key_id)
                assert client.decaps(key_id, ct) == shared

    def test_many_multiplexed_clients(self):
        async def main():
            svc = await KemService(ServiceConfig(max_batch=16)).start()
            key_id = svc.add_keypair(LAC_256, seed=SEED)
            clients = [
                await connected_client(svc, (key_id, LAC_256)) for _ in range(8)
            ]
            results = await asyncio.gather(
                *[c.encaps(key_id) for c in clients for _ in range(4)]
            )
            assert len({shared for _, shared in results}) == 32
            kem = LacKem(LAC_256)
            pair = kem.keygen(SEED)
            from repro.lac.pke import Ciphertext

            ct_bytes, shared = results[0]
            assert (
                kem.decaps(pair.secret_key, Ciphertext.from_bytes(LAC_256, ct_bytes))
                == shared
            )
            for c in clients:
                await c.aclose()
            await svc.shutdown()

        asyncio.run(main())
