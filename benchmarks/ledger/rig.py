"""One workload's service, clients, seeded inputs and load loops.

Everything runs on one asyncio thread: the generator and an in-process
``KemService(ServiceConfig(backend="thread"))`` reached over
``service.connect()``.  Every other ``ServiceConfig`` field stays at its
default, so a change of a default is measured, not masked.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from typing import Any, NamedTuple

from repro.backend import CosimBackend
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import Ciphertext
from repro.schemes import resolve, wire_id_for_params
from repro.serve import AsyncKemClient, KemService, ServiceConfig, ServiceError
from repro.serve.protocol import Op, pack_decaps_request, pack_encaps_request
from repro.trace import Tracer

from .streams import Request, make_stream, stream_digest
from .workloads import Workload

clock = time.perf_counter

#: The cosim known-answer inputs: the only ones with an offline
#: prediction (DECAPS cycles are data-dependent), so ``--seed`` is ignored.
KAT_SEED = bytes(range(64))
KAT_MESSAGE = bytes(range(32))
KAT_PROFILES = ("const_bch", "ise")
#: keygen, encaps, decaps on each profile and parameter set
KAT_ROUND_OPS = 3 * len(KAT_PROFILES) * len(ALL_PARAMS)

#: Requests whose frames ``serve.protocol.*`` times (two frames each).
PROTOCOL_SHAPES = 512

_FAILURES = (ServiceError, ConnectionError, asyncio.IncompleteReadError)


class Record(NamedTuple):
    """One finished request: ``t0`` is the send (or scheduled) time.

    ``kind`` separates requests that are different fixed computations
    (``cosim-kat``: profile/set/op); requests drawn from one seeded
    stream share the empty kind.
    """

    op: str
    t0: float
    t1: float
    ok: bool
    kind: str = ""


def scalar_encaps(scheme: Any, params: Any, pair: Any, message: bytes) -> tuple[bytes, bytes]:
    """``(ct bytes, secret)`` from the one-at-a-time reference path."""
    if isinstance(params, LacParams):
        result = LacKem(params).encaps(pair.public_key, message)
        return result.ciphertext.to_bytes(), result.shared_secret
    return scheme.encaps_one(params, pair, message)


class Rig:
    """A started service with connected clients for one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        server_tracer: Tracer | None = None,
        client_tracer: Tracer | None = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.server_tracer = server_tracer
        self.client_tracer = client_tracer
        self.scheme, self.params = resolve(workload.params)
        self.services: list[KemService] = []
        self.clients: list[AsyncKemClient] = []
        self.key_ids: list[int] = []
        self.pairs: list[Any] = []
        self.pools: list[list[tuple[bytes, bytes]]] = []
        self.stream: list[Request] = []
        self.digest = ""
        self.lags_ms: list[float] = []
        self._cursor = itertools.count()
        self._stream_time = 0.0
        self._to_check: list[tuple[Request, Any]] = []

    # -- set-up ---------------------------------------------------------

    async def _start_service(self, **kwargs: Any) -> None:
        service = KemService(
            ServiceConfig(backend="thread"), tracer=self.server_tracer, **kwargs
        )
        await service.start()
        self.services.append(service)
        for _ in range(self.workload.conns):
            reader, writer = await service.connect()
            self.clients.append(
                AsyncKemClient(reader, writer, tracer=self.client_tracer)
            )

    async def open(self) -> None:
        """Start the service, host the keys, get one verified reply."""
        w = self.workload
        await self._start_service()
        rng = random.Random(f"ledger/{w.name}/keys/{self.seed}")
        service = self.services[0]
        for _ in range(w.keys):
            key_id = service.add_keypair(
                self.params, seed=rng.randbytes(self.scheme.seed_len(self.params))
            )
            self.key_ids.append(key_id)
            hosted = service.hosted_key(key_id)
            assert hosted is not None
            self.pairs.append(hosted.pair)
            for client in self.clients:
                client.register_key(key_id, self.params)
        ct, secret = await self.clients[0].encaps(self.key_ids[0], KAT_MESSAGE)
        if await self.clients[0].decaps(self.key_ids[0], ct) != secret:
            raise RuntimeError(f"{w.name}: first round trip did not verify")

    def prepare(self, horizon_s: float) -> None:
        """Generate the ciphertext pools and the request stream."""
        w = self.workload
        rng = random.Random(f"ledger/{w.name}/pool/{self.seed}")
        size = self.scheme.message_bytes(self.params)
        for pair in self.pairs:
            messages = [rng.randbytes(size) for _ in range(w.pool)]
            pool = self.scheme.encaps_many(self.params, pair, messages)
            tampered = (
                range(w.tamper_every - 1, w.pool, w.tamper_every)
                if w.tamper_every
                else ()
            )
            for j in tampered:
                bad = bytearray(pool[j][0])
                bad[rng.randrange(self.params.n, len(bad))] ^= 0x01
                expected = LacKem(self.params).decaps(
                    pair.secret_key, Ciphertext.from_bytes(self.params, bytes(bad))
                )
                pool[j] = (bytes(bad), expected)
            self.pools.append(pool)
        rate = w.rate if w.rate is not None else w.max_rate
        self.stream = make_stream(
            self.seed,
            w.name,
            int(rate * horizon_s) + 1,
            keys=w.keys,
            zipf_s=w.zipf_s,
            mix=w.mix,
            pool=w.pool,
            blob_bytes={
                "ENCAPS": size,
                "KEYGEN": self.scheme.seed_len(self.params),
            },
            horizon_s=horizon_s if w.rate is not None else None,
        )
        self.digest = stream_digest(self.stream)

    # -- load -----------------------------------------------------------

    async def _perform(self, client: AsyncKemClient, request: Request) -> tuple[float, bool]:
        """Send one request; returns ``(reply time, whether it was right)``."""
        key_id = self.key_ids[request.key]
        try:
            if request.op == "ENCAPS":
                reply: Any = await client.encaps(key_id, request.blob)
                done = clock()
            elif request.op == "DECAPS":
                ct, expected = self.pools[request.key][request.item]
                secret = await client.decaps(key_id, ct)
                return clock(), secret == expected
            else:
                new_id, public_key = await client.keygen(self.params, request.blob)
                done = clock()
                await client.remove_key(new_id)
                reply = public_key.to_bytes()
        except _FAILURES:
            return clock(), False
        if request.verify:
            self._to_check.append((request, reply))
        return done, True

    async def run(self, seconds: float) -> list[Record]:
        """Drive the workload's loop for ``seconds``; returns every record."""
        if self.workload.loop == "open":
            return await self._run_open(seconds)
        records: list[Record] = []
        stop = clock() + seconds
        stream = self.stream

        async def caller(client: AsyncKemClient) -> None:
            while clock() < stop:
                request = stream[next(self._cursor) % len(stream)]
                t0 = clock()
                t1, ok = await self._perform(client, request)
                records.append(Record(request.op, t0, t1, ok))

        await asyncio.gather(
            *[
                caller(client)
                for client in self.clients
                for _ in range(self.workload.callers)
            ]
        )
        return records

    async def _run_open(self, seconds: float) -> list[Record]:
        records: list[Record] = []
        self.lags_ms = []
        begin = clock() - self._stream_time
        until = self._stream_time + seconds
        tasks = []

        async def fire(client: AsyncKemClient, request: Request, due: float) -> None:
            t1, ok = await self._perform(client, request)
            records.append(Record(request.op, due, t1, ok))

        for index in self._cursor:
            request = self.stream[index] if index < len(self.stream) else None
            if request is None or request.at >= until:
                # un-take the request this phase did not send
                self._cursor = itertools.count(index)
                break
            due = begin + request.at
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags_ms.append((clock() - due) * 1e3)
            client = self.clients[index % len(self.clients)]
            tasks.append(asyncio.create_task(fire(client, request, due)))
        self._stream_time = until
        await asyncio.gather(*tasks)
        return records

    # -- after the window -----------------------------------------------

    def verify(self) -> int:
        """Re-derive the sampled ENCAPS/KEYGEN replies; returns mismatches."""
        wrong = 0
        for request, reply in self._to_check:
            if request.op == "ENCAPS":
                expected: Any = scalar_encaps(
                    self.scheme, self.params, self.pairs[request.key], request.blob
                )
            else:
                expected = (
                    LacKem(self.params).keygen(request.blob).public_key.to_bytes()
                )
            wrong += reply != expected
        self._to_check.clear()
        return wrong

    def wire_shapes(self) -> list[tuple[Op, int, bytes, int]]:
        """``(op, wire param id, request payload, response size)`` of the
        stream's first requests: the workload's own frames."""
        wire_id = wire_id_for_params(self.params)
        ct_size = self.scheme.ciphertext_wire_bytes(self.params)
        shapes = []
        for request in self.stream[:PROTOCOL_SHAPES]:
            key_id = self.key_ids[request.key]
            if request.op == "ENCAPS":
                payload = pack_encaps_request(key_id, request.blob)
                shapes.append((Op.ENCAPS, wire_id, payload, ct_size + 32))
            elif request.op == "DECAPS":
                ct = self.pools[request.key][request.item][0]
                shapes.append((Op.DECAPS, wire_id, pack_decaps_request(key_id, ct), 32))
            else:
                pk_size = self.scheme.public_key_wire_bytes(self.params)
                shapes.append((Op.KEYGEN, wire_id, request.blob, 4 + pk_size))
        return shapes

    async def info(self) -> list[dict]:
        """One ``INFO`` snapshot per service."""
        per_service = len(self.clients) // len(self.services)
        return [
            await self.clients[i * per_service].info()  # type: ignore[misc]
            for i in range(len(self.services))
        ]

    async def close(self) -> None:
        """Close clients, drain services."""
        for client in self.clients:
            await client.aclose()
        for service in self.services:
            await service.shutdown()


class KatRig(Rig):
    """``cosim-kat``: the paper's own Table II path, served.

    One service per cosim profile, each on its own ``CosimBackend``; one
    caller walks ``keygen → encaps → decaps`` over the three parameter
    sets.  A phase is a whole number of rounds, at least ``min_rounds``,
    so every phase times the same eighteen operations equally often.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.backends = [CosimBackend(profile=p) for p in KAT_PROFILES]
        self.answers: dict[str, tuple[bytes, bytes, bytes]] = {}
        self.min_rounds = 1

    async def _sequence(
        self, client: AsyncKemClient, profile: str, params: LacParams, out: list[Record]
    ) -> None:
        t0 = clock()
        key_id, public_key = await client.keygen(params, KAT_SEED)
        t1 = clock()
        ct, secret = await client.encaps(key_id, KAT_MESSAGE)
        t2 = clock()
        back = await client.decaps(key_id, ct)
        t3 = clock()
        await client.remove_key(key_id)
        answer = (public_key.to_bytes(), ct, secret)  # type: ignore[union-attr]
        same = self.answers.setdefault(params.name, answer) == answer
        kind = f"{profile}/{params.name}/"
        out.append(Record("KEYGEN", t0, t1, same, kind + "KEYGEN"))
        out.append(Record("ENCAPS", t1, t2, same, kind + "ENCAPS"))
        out.append(Record("DECAPS", t2, t3, back == secret, kind + "DECAPS"))

    async def open(self) -> None:
        for backend in self.backends:
            await self._start_service(backend=backend)
        await self._sequence(self.clients[0], KAT_PROFILES[0], ALL_PARAMS[0], [])

    def prepare(self, horizon_s: float) -> None:
        self.digest = stream_digest([])

    async def run(self, seconds: float) -> list[Record]:
        records: list[Record] = []
        stop = clock() + seconds
        rounds = 0
        while rounds < self.min_rounds or clock() < stop:
            for client, profile in zip(self.clients, KAT_PROFILES, strict=True):
                for params in ALL_PARAMS:
                    try:
                        await self._sequence(client, profile, params, records)
                    except _FAILURES:
                        records.append(Record("KEYGEN", clock(), clock(), False))
            rounds += 1
        return records

    def wire_shapes(self) -> list[tuple[Op, int, bytes, int]]:
        shapes = []
        for params in ALL_PARAMS:
            wire_id = wire_id_for_params(params)
            ct_size = params.ciphertext_bytes
            shapes += [
                (Op.KEYGEN, wire_id, KAT_SEED, 4 + params.public_key_bytes),
                (Op.ENCAPS, wire_id, pack_encaps_request(1, KAT_MESSAGE), ct_size + 32),
                (Op.DECAPS, wire_id, pack_decaps_request(1, bytes(ct_size)), 32),
            ]
        return shapes

    def verify(self) -> int:
        """Both profiles must have served the scalar KEM's exact bytes."""
        wrong = 0
        for params in ALL_PARAMS:
            kem = LacKem(params)
            pair = kem.keygen(KAT_SEED)
            result = kem.encaps(pair.public_key, KAT_MESSAGE)
            expected = (
                pair.public_key.to_bytes(),
                result.ciphertext.to_bytes(),
                result.shared_secret,
            )
            wrong += self.answers.get(params.name) != expected
        return wrong

    async def close(self) -> None:
        await super().close()
        for backend in self.backends:
            backend.close()


def make_rig(workload: Workload, seed: int, **tracers: Tracer | None) -> Rig:
    """The rig class a workload's loop needs."""
    cls = KatRig if workload.loop == "kat" else Rig
    return cls(workload, seed, **tracers)
