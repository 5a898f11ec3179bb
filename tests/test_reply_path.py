"""The request path answers once: every exit, one reply.

``KemService._reply`` is the only code that releases what a request
holds, counts the response, samples latency, emits the spans and writes
the frame.  These tests drive *every way out* of the request path —
``OK`` for each op, each admission gate, the parse refusals, the
dispatch-time sheds, kernel failures, a handler bug — on a
:class:`KemService`, and after each one assert the ledger is balanced: as many responses as
requests, no pending slot, no tenant in-flight slot, an empty queue,
and one root span per request whose stage spans sum to it exactly.

Clocks are injected (a deterministic tick clock: every read is 1 ms
after the last, so no span is trivially zero-length); nothing here
races the wall clock.
"""

from __future__ import annotations

import ast
import asyncio
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.backend import InlineBackend
from repro.errors import (
    BadRequest,
    KeyNotFound,
    RequestTimedOut,
    ServiceBusy,
    ServiceDraining,
    ServiceError,
)
from repro.faults import (
    KIND_BUSY,
    KIND_TIMEOUT,
    SITE_ADMISSION,
    FaultPlan,
    FaultSpec,
)
from repro.lac.params import LAC_128
from repro.schemes import wire_id_for_params
from repro.serve import (
    AsyncKemClient,
    KemService,
    Op,
    ServiceConfig,
    Status,
    TenantQuota,
)
from repro.serve.protocol import (
    PARAM_NONE,
    pack_decaps_request,
    pack_encaps_request,
    pack_key_id,
)
from repro.trace import InMemoryRecorder, Tracer
from repro.trace.report import STAGES

SEED = bytes(range(64))
PID = wire_id_for_params(LAC_128)
NONCE = bytes(12)
SRC = Path(__file__).parent.parent / "src" / "repro"


class TickClock:
    """A deterministic monotonic clock: each read is 1 ms after the last."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedBackend(InlineBackend):
    """Inline kernels whose *next* batch can be told to misbehave."""

    def __init__(self, clock: TickClock) -> None:
        super().__init__()
        self.clock = clock
        self.next: str | None = None

    def _kernel(self, scheme, params, op, pair, batch):
        mode, self.next = self.next, None
        if mode == "raise":
            raise RuntimeError("kernel exploded")
        results = super()._kernel(scheme, params, op, pair, batch)
        if mode == "slow":
            self.clock.advance(5.0)
        return results[:-1] if mode == "short" else results


def assert_balanced(server: KemService, recorder: InMemoryRecorder) -> None:
    """The invariants one ``_reply`` buys, checked after any exit."""
    snap = server.metrics.snapshot()
    requests = sum(snap["requests"].values())
    assert requests and requests == sum(snap["responses"].values())
    assert server.pending == 0
    assert snap["queue_depth"] == 0
    assert snap["inflight_batches"] == 0
    for state in server._tenants.quotas.values():
        assert state.inflight == 0
    roots = [s for s in recorder.spans if s.name == "server.request"]
    assert len(roots) == requests, "one root span per answered request"
    for root in roots:
        stages = [
            s
            for s in recorder.spans
            if s.parent_id == root.span_id and s.name in STAGES
        ]
        assert stages and stages[0].name == "admission"
        assert sum(s.duration_s for s in stages) == pytest.approx(
            root.duration_s, abs=1e-9
        )
        assert root.duration_s > 0


# ----------------------------------------------------------------------
# KemService
# ----------------------------------------------------------------------


@dataclass
class Rig:
    svc: KemService
    client: AsyncKemClient
    clock: TickClock
    backend: ScriptedBackend
    key_id: int
    #: requests a scenario leaves parked; the shutdown drain answers them
    parked: list[asyncio.Task] = field(default_factory=list)

    async def status(self, op: Op, payload: bytes = b"", **kwargs) -> Status:
        param_id = PARAM_NONE if op in (Op.INFO, Op.REMOVE_KEY) else PID
        return (await self.client.request(op, param_id, payload, **kwargs)).status

    def host(self, tenant: int) -> int:
        """Host a key of ``tenant``; keys answer only their own tenant."""
        key_id = self.svc.add_keypair(LAC_128, seed=SEED, tenant=tenant)
        self.client.register_key(key_id, LAC_128)
        return key_id

    def park(self, coro) -> None:
        self.parked.append(asyncio.ensure_future(coro))

    async def until_pending(self, n: int) -> None:
        for _ in range(10_000):
            if self.svc.pending == n:
                return
            await asyncio.sleep(0.001)
        raise AssertionError(f"never reached {n} pending")


SERVICE_SCENARIOS = {}


def scenario(faults: tuple[FaultSpec, ...] = (), **config):
    """Register a service scenario with its config and fault specs.

    Batch windows never close on their own (10 s bounds on a clock
    that only the test advances), so a request parks until its batch
    fills or the shutdown drain takes it.
    """
    config.setdefault("max_batch", 1)
    config.setdefault("max_wait_us", 10_000_000.0)
    config.setdefault("min_wait_us", 10_000_000.0)

    def register(fn):
        SERVICE_SCENARIOS[fn.__name__] = (fn, config, faults)
        return fn

    return register


@scenario()
async def ok_for_all_nine_ops(rig: Rig):
    client = rig.client
    key_id, _pk = await client.keygen(LAC_128, SEED)
    ct, shared = await client.encaps(key_id)
    assert await client.decaps(key_id, ct) == shared
    assert "service" in await client.info()
    # an INFO answer names no parameter set, whatever the request said
    assert (await client.request(Op.INFO, PID)).param_id == PARAM_NONE
    sid, _ct, _shared = await client.open_session(key_id)
    sealed = await client.seal(sid, NONCE, b"payload")
    assert await client.open_sealed(sid, NONCE, sealed) == b"payload"
    await client.close_session(sid)
    await client.remove_key(key_id)
    latency = rig.svc.metrics.snapshot()["latency_us"]
    assert set(latency) == {op.name for op in Op}, "every OK is a latency sample"


@scenario(faults=(FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1),))
async def injected_busy(rig: Rig):
    with pytest.raises(ServiceBusy, match="injected fault"):
        await rig.client.encaps(rig.key_id)
    # control ops are exempt from the draw
    assert await rig.status(Op.INFO) is Status.OK


@scenario(faults=(FaultSpec(SITE_ADMISSION, KIND_TIMEOUT, max_fires=1),))
async def injected_timeout(rig: Rig):
    with pytest.raises(RequestTimedOut, match="injected fault"):
        await rig.client.open_session(rig.key_id)


@scenario()
async def draining(rig: Rig):
    rig.svc._draining = True
    with pytest.raises(ServiceDraining):
        await rig.client.encaps(rig.key_id)
    with pytest.raises(ServiceDraining):
        await rig.client.open_session(rig.key_id)
    # the control plane is still answered while draining
    assert await rig.status(Op.INFO) is Status.OK
    assert await rig.status(Op.REMOVE_KEY, pack_key_id(rig.key_id)) is Status.OK
    rig.svc._draining = False


@scenario(tenant_quotas=(TenantQuota(tenant=3, max_keys=1),))
async def quota_keys(rig: Rig):
    await rig.client.keygen(LAC_128, SEED, tenant=3)
    with pytest.raises(ServiceBusy, match=r"over quota \(keys\)"):
        await rig.client.keygen(LAC_128, SEED, tenant=3)
    assert rig.svc.metrics.snapshot()["sheds"] == {"quota:0:3": 1}


@scenario(max_batch=2, tenant_quotas=(TenantQuota(tenant=3, max_inflight=1),))
async def quota_inflight(rig: Rig):
    key_id = rig.host(3)
    rig.park(rig.client.encaps(key_id, tenant=3))
    await rig.until_pending(1)
    with pytest.raises(ServiceBusy, match=r"over quota \(inflight\)"):
        await rig.client.encaps(key_id, tenant=3)
    # session ops hold the tenant's in-flight slot too
    with pytest.raises(ServiceBusy, match=r"over quota \(inflight\)"):
        await rig.client.open_session(key_id, tenant=3)


@scenario(tenant_quotas=(TenantQuota(tenant=3, ops_per_s=0.001, burst=1.0),))
async def quota_rate(rig: Rig):
    key_id = rig.host(3)
    await rig.client.encaps(key_id, tenant=3)
    with pytest.raises(ServiceBusy, match=r"over quota \(rate\)"):
        await rig.client.encaps(key_id, tenant=3)


@scenario(max_batch=8, high_watermark=4, tier_watermarks=(1.0, 0.5))
async def tier_watermark_then_full_queue(rig: Rig):
    for _ in range(2):
        rig.park(rig.client.encaps(rig.key_id))
    await rig.until_pending(2)
    with pytest.raises(ServiceBusy, match="2 requests pending"):
        await rig.client.encaps(rig.key_id, tier=1)
    assert rig.svc.metrics.snapshot()["sheds"] == {"watermark:1:0": 1}
    for _ in range(2):
        rig.park(rig.client.encaps(rig.key_id))
    await rig.until_pending(4)
    # a full queue is plain backpressure, not a shed
    with pytest.raises(ServiceBusy, match="4 requests pending"):
        await rig.client.encaps(rig.key_id)
    assert rig.svc.metrics.snapshot()["sheds"] == {"watermark:1:0": 1}
    assert rig.svc.pending == 4


@scenario()
async def hopeless(rig: Rig):
    rig.svc._deadlines.estimator.observe(("ENCAPS", PID), 5.0, 1)
    with pytest.raises(ServiceBusy, match="below expected"):
        await rig.client.encaps(rig.key_id, deadline_s=0.05)
    assert rig.svc.metrics.snapshot()["sheds"] == {"hopeless:0:0": 1}


@scenario()
async def bad_request_parses(rig: Rig):
    assert await rig.status(Op.ENCAPS, b"\x01\x02") is Status.BAD_REQUEST
    assert await rig.status(Op.KEYGEN, b"short seed") is Status.BAD_REQUEST
    assert await rig.status(Op.REMOVE_KEY, b"\x01") is Status.BAD_REQUEST
    assert await rig.status(Op.SEAL, b"\x00") is Status.BAD_REQUEST
    assert (
        await rig.status(Op.DECAPS, pack_decaps_request(rig.key_id, b"short"))
        is Status.BAD_REQUEST
    )


@scenario()
async def not_found_parses(rig: Rig):
    rig.client.register_key(99, LAC_128)
    with pytest.raises(KeyNotFound, match="unknown key id 99"):
        await rig.client.encaps(99)
    # wire bytes: the data-plane refusal has always carried the quotes
    # of the ``KeyError`` it once was; the inline ops never did
    refused = await rig.client.request(Op.DECAPS, PID, pack_key_id(99))
    assert refused.payload == b"'unknown key id 99'"
    refused = await rig.client.request(Op.SESSION_OPEN, PID, pack_key_id(99))
    assert refused.payload == b"unknown key id 99"
    with pytest.raises(KeyNotFound, match="unknown key id 99"):
        await rig.client.open_session(99)
    with pytest.raises(KeyNotFound, match="unknown key id 99"):
        await rig.client.remove_key(99)
    with pytest.raises(KeyNotFound, match="unknown session id 7"):
        await rig.client.seal(7, NONCE, b"x")
    with pytest.raises(KeyNotFound, match="unknown session id 7"):
        await rig.client.close_session(7)


@scenario()
async def foreign_key_is_not_found(rig: Rig):
    # another tenant's key id gets the bytes of an id never issued
    ct, shared = await rig.client.encaps(rig.key_id)
    quoted = f"'unknown key id {rig.key_id}'".encode()
    for op, payload, refusal in (
        (Op.ENCAPS, pack_encaps_request(rig.key_id), quoted),
        (Op.DECAPS, pack_decaps_request(rig.key_id, ct), quoted),
        (Op.SESSION_OPEN, pack_key_id(rig.key_id), quoted[1:-1]),
        (Op.REMOVE_KEY, pack_key_id(rig.key_id), quoted[1:-1]),
    ):
        param_id = PARAM_NONE if op is Op.REMOVE_KEY else PID
        reply = await rig.client.request(op, param_id, payload, tenant=2)
        assert (reply.status, reply.payload) == (Status.NOT_FOUND, refusal)
    assert await rig.client.decaps(rig.key_id, ct) == shared


@scenario(max_batch=2, request_timeout=5.0)
async def queue_timeout(rig: Rig):
    expired = asyncio.ensure_future(rig.client.encaps(rig.key_id))
    await rig.until_pending(1)
    rig.clock.advance(40.0)
    await rig.client.encaps(rig.key_id)  # fills the batch, flushes both
    with pytest.raises(RequestTimedOut, match="queued"):
        await expired


@scenario(max_batch=2)
async def predicted_miss(rig: Rig):
    doomed = asyncio.ensure_future(rig.client.encaps(rig.key_id, deadline_s=1.0))
    await rig.until_pending(1)
    rig.clock.advance(2.0)  # the queue wait alone blows the budget
    await rig.client.encaps(rig.key_id)
    with pytest.raises(RequestTimedOut, match="shed: queued"):
        await doomed
    assert rig.svc.metrics.snapshot()["sheds"] == {"predicted-miss:0:0": 1}


@scenario()
async def missed(rig: Rig):
    rig.backend.next = "slow"
    with pytest.raises(RequestTimedOut, match="past a 1.000s deadline"):
        await rig.client.encaps(rig.key_id, deadline_s=1.0)
    assert rig.svc.metrics.snapshot()["sheds"] == {"missed:0:0": 1}


@scenario()
async def kernel_raise(rig: Rig):
    rig.backend.next = "raise"
    with pytest.raises(ServiceError, match="kernel exploded"):
        await rig.client.encaps(rig.key_id)


@scenario()
async def result_count_mismatch(rig: Rig):
    rig.backend.next = "short"
    with pytest.raises(ServiceError, match="batch result count mismatch"):
        await rig.client.encaps(rig.key_id)
    rig.backend.next = "short"
    with pytest.raises(ServiceError, match="batch result count mismatch"):
        await rig.client.keygen(LAC_128, SEED)
    assert len(rig.svc._keys) == 1  # the short KEYGEN hosted nothing


@scenario()
async def bad_session_tag(rig: Rig):
    sid, _ct, _shared = await rig.client.open_session(rig.key_id)
    sealed = await rig.client.seal(sid, NONCE, b"payload")
    tampered = sealed[:-1] + bytes([sealed[-1] ^ 1])
    with pytest.raises(BadRequest, match="authentication failed"):
        await rig.client.open_sealed(sid, NONCE, tampered)


@scenario()
async def handler_bug(rig: Rig):
    def explode(request):
        raise RuntimeError("a bug in the handler")

    rig.svc._parse = explode
    assert await rig.status(Op.ENCAPS, pack_encaps_request(rig.key_id)) is (
        Status.INTERNAL
    )
    del rig.svc._parse
    snap = rig.svc.metrics.snapshot()
    assert snap["connection_errors"] == {"handler-internal": 1}
    await rig.client.encaps(rig.key_id)  # the connection survived


@scenario(tenant_quotas=(TenantQuota(tenant=3, max_inflight=1),))
async def cancelled_mid_request(rig: Rig):
    async def hang(request):
        await asyncio.Event().wait()

    rig.svc._session = hang
    torn = asyncio.ensure_future(rig.client.request(Op.SEAL, PID, tenant=3))
    for _ in range(10_000):
        if rig.svc._tenants.quotas[3].inflight:
            break
        await asyncio.sleep(0.001)
    for task in list(rig.svc._conn_tasks):
        task.cancel()
    # the torn-down request is still answered, and gives its slot back
    reply = await torn
    assert (reply.status, reply.payload) == (Status.INTERNAL, b"cancelled")
    assert rig.svc._tenants.quotas[3].inflight == 0


@pytest.mark.parametrize("name", SERVICE_SCENARIOS)
def test_service_answers_exactly_once(name):
    fn, config, faults = SERVICE_SCENARIOS[name]

    async def main():
        clock = TickClock()
        recorder = InMemoryRecorder()
        backend = ScriptedBackend(clock)
        svc = KemService(
            ServiceConfig(**config),
            backend=backend,
            clock=clock,
            fault_plan=FaultPlan(list(faults)) if faults else None,
            tracer=Tracer(recorder=recorder),
        )
        await svc.start()
        key_id = svc.add_keypair(LAC_128, seed=SEED)
        client = AsyncKemClient(*(await svc.connect()))
        client.register_key(key_id, LAC_128)
        rig = Rig(svc, client, clock, backend, key_id)
        await fn(rig)
        await svc.shutdown()  # the drain answers whatever is still parked
        await asyncio.gather(*rig.parked)
        await client.aclose()
        assert_balanced(svc, recorder)

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_pipelined_keygens_cannot_overrun_max_keys():
    """The KEYGEN quota race: every KEYGEN of one batch window used to
    pass the ``max_keys`` check, because the count only moved when the
    key registered after the batch ran."""

    async def main():
        clock = TickClock()
        backend = ScriptedBackend(clock)
        svc = KemService(
            ServiceConfig(tenant_quotas=(TenantQuota(tenant=3, max_keys=2),)),
            backend=backend,
            clock=clock,
        )
        await svc.start()
        client = AsyncKemClient(*(await svc.connect()))
        results = await asyncio.gather(
            *[client.keygen(LAC_128, tenant=3) for _ in range(6)],
            return_exceptions=True,
        )
        busy = [r for r in results if isinstance(r, ServiceBusy)]
        assert len(busy) == 4 and len(results) - len(busy) == 2
        assert svc.metrics.snapshot()["sheds"] == {"quota:0:3": 4}
        assert len(svc._keys) == 2 and svc._tenants.quotas[3].keys == 2

        # a KEYGEN that fails in the kernel gives its slot back
        for key_id in list(svc._keys):
            await client.remove_key(key_id, tenant=3)
        for _ in range(3):
            backend.next = "raise"
            with pytest.raises(ServiceError, match="kernel exploded"):
                await client.keygen(LAC_128, tenant=3)
        assert svc._tenants.quotas[3].keys == 0
        await client.keygen(LAC_128, tenant=3)
        await client.keygen(LAC_128, tenant=3)
        with pytest.raises(ServiceBusy):
            await client.keygen(LAC_128, tenant=3)
        await client.aclose()
        await svc.shutdown()

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_root_tags_and_admission_boundary_of_traced_requests():
    """What was traced before the envelope is traced the same way: each
    refusal's root carries exactly the tags of its raise site, a parked
    request names its key (tier/tenant only when nonzero), and
    ``admission`` ends *before* the payload parse."""

    async def main():
        clock = TickClock()
        recorder = InMemoryRecorder()
        svc = KemService(
            ServiceConfig(
                max_batch=1,
                high_watermark=4,
                tier_watermarks=(1.0, 0.1),  # tier 1 admits nothing (limit 0)
                tenant_quotas=(TenantQuota(tenant=3, max_keys=0),),
            ),
            backend=ScriptedBackend(clock),
            clock=clock,
            tracer=Tracer(recorder=recorder),
        )
        await svc.start()
        key_id = svc.add_keypair(LAC_128, seed=SEED)
        tenant2_key = svc.add_keypair(LAC_128, seed=SEED, tenant=2)
        client = AsyncKemClient(*(await svc.connect()))
        client.register_key(key_id, LAC_128)
        client.register_key(tenant2_key, LAC_128)

        parse = svc._parse

        def slow_parse(request):
            clock.advance(5.0)
            parse(request)

        svc._parse = slow_parse
        await client.encaps(key_id)
        del svc._parse
        with pytest.raises(ServiceBusy):
            await client.keygen(LAC_128, SEED, tenant=3)  # quota
        with pytest.raises(ServiceBusy):
            await client.encaps(key_id, tier=1)  # watermark
        await client.request(Op.ENCAPS, PID, b"\x01")  # parse refusal
        sid, _ct, _shared = await client.open_session(tenant2_key, tenant=2)
        with pytest.raises(KeyNotFound):
            await client.seal(sid, NONCE, b"x")  # tenant 0: not its session
        await client.aclose()
        await svc.shutdown()

        roots = [s for s in recorder.spans if s.name == "server.request"]
        assert [sorted(r.tags) for r in roots] == [
            ["batch_size", "key_id", "op", "status", "trigger"],
            ["op", "shed_reason", "status", "tenant", "tier"],
            ["op", "shed_reason", "status", "tier"],
            ["op", "status"],
            ["op", "status", "tenant"],
            ["op", "status", "tenant"],
        ]
        assert roots[1].tags["tier"] == 0 and roots[5].tags["tenant"] == 0
        stages = {
            s.name: s.duration_s
            for s in recorder.spans
            if s.parent_id == roots[0].span_id
        }
        assert stages["admission"] < 1.0 < 5.0 <= stages["queue"]

    asyncio.run(asyncio.wait_for(main(), 60.0))


# ----------------------------------------------------------------------
# the boundary stays shut
# ----------------------------------------------------------------------


def test_one_reply_path_in_server():
    """In ``serve/server.py`` the connection's ``respond`` is awaited in
    one function and a response counted in one; the pre-envelope answer
    helpers must not grow back."""
    banned = {"_error", "_reject", "_finish", "_trace_request", "_trace_ids"}
    responders, counters = [], []
    tree = ast.parse((SRC / "serve" / "server.py").read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef):
            continue
        assert fn.name not in banned, f"line {fn.lineno} defines {fn.name}"
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, f"line {node.lineno} uses {node.attr}"
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if name == "respond":
                responders.append(fn.name)
            elif name == "record_response":
                counters.append(fn.name)
    assert responders == ["_reply"]
    assert counters == ["_reply"]
