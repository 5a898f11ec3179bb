"""Backend conformance suite: every :class:`repro.backend.KemBackend`
implementation must be bit-identical to the scheme's scalar reference.

One matrix — (inline, thread, process, cosim) × (LAC, NewHope) ×
(KEYGEN, ENCAPS, DECAPS) — drives the single ``submit`` entry point and
pins parity (including implicit rejection of tampered ciphertexts),
degenerate batch sizes, the ``wrapper`` execution hook and the stats
counters; the cosim backend prices only LAC and must *refuse* NewHope
at registration.  The rest covers ``close()`` idempotence, the registry
(name selection), the process backend's crash supervision
(``kill_worker`` -> typed :class:`WorkerCrashed` -> bounded restart)
and its wire (one message per worker chunk, worker cache stats, a
clean interpreter exit), and the ``backend`` chaos fault site end to
end through the service.

The process backend is module-scoped (one spawn, ``LAC_128``-only
warmup) to keep the spawn cost paid once.
"""

import asyncio
import contextlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    DEFAULT_THREAD_WORKERS,
    CosimBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    check_backend_name,
    create_backend,
)
from repro.backend import process as process_module
from repro.backend.process import DEFAULT_MAX_RESTARTS
from repro.errors import UnsupportedScheme, WorkerCrashed
from repro.faults.plan import KIND_CRASH, SITE_BACKEND, FaultPlan, FaultSpec
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_128
from repro.lac.pke import Ciphertext
from repro.newhope.cca import NewHopeCcaKem, _pk_bytes
from repro.newhope.params import NEWHOPE_512
from repro.schemes import LAC_SCHEME, NEWHOPE_SCHEME
from repro.serve import (
    AsyncKemClient,
    KemClient,
    KemService,
    ServiceConfig,
    ThreadedService,
)

SEED = bytes(range(64))
OPS = ("KEYGEN", "ENCAPS", "DECAPS")


@pytest.fixture(scope="module")
def process_backend():
    # chunks are cut parent-side: split even a two-lane batch across
    # both workers, so every path crosses more than one pipe
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process_module, "MIN_CHUNK", 1)
        backend = ProcessBackend(workers=2, warm_params=[LAC_128])
        backend.warmup([LAC_128])
        yield backend
        backend.close()


@pytest.fixture(scope="module")
def cosim_backend():
    backend = CosimBackend()
    yield backend  # module-scoped: the cycle models are built once
    backend.close()


@contextlib.contextmanager
def _backend_named(name, process_backend, cosim_backend):
    if name == "process":
        yield process_backend  # module-scoped: spawn cost paid once
        return
    if name == "cosim":
        yield cosim_backend
        return
    impl = InlineBackend() if name == "inline" else ThreadBackend(workers=2)
    yield impl
    impl.close()


@pytest.fixture(params=BACKEND_NAMES)
def backend(request, process_backend, cosim_backend):
    with _backend_named(request.param, process_backend, cosim_backend) as impl:
        yield impl


@pytest.fixture(scope="module")
def scalar():
    kem = LacKem(LAC_128)
    pair = kem.keygen(SEED)
    return kem, pair


def _messages(count, params=LAC_128):
    return [bytes([i & 0xFF, 0x5A]) * (params.message_bytes // 2) for i in range(count)]


def _encaps(backend, pair, messages):
    """One LAC-128 ENCAPS batch through the contract."""
    return backend.submit(
        LAC_SCHEME, LAC_128, "ENCAPS", [pair] * len(messages), messages
    )


class _Scalar:
    """One scheme's scalar reference implementation, speaking the wire
    bytes ``submit`` speaks (``LacKem`` / ``NewHopeCcaKem`` called one
    operation at a time — never the batched adapter under test)."""

    def __init__(self, scheme, params):
        self.scheme, self.params = scheme, params
        self.lac = scheme is LAC_SCHEME
        self.kem = LacKem(params) if self.lac else NewHopeCcaKem(params)
        self.pair = self.kem.keygen(SEED)
        self.other = self.kem.keygen(SEED[::-1])  # a second hosted key

    def pair_bytes(self, pair):
        """Both halves of a pair, so KEYGEN parity covers the secret."""
        if self.lac:
            return pair.public_key.to_bytes() + pair.secret_key.to_bytes()
        return _pk_bytes(pair.keys) + pair.keys.s_hat.tobytes() + pair.z

    def encaps(self, message, pair=None):
        pair = pair or self.pair
        if self.lac:
            result = self.kem.encaps(pair.public_key, message)
            return result.ciphertext.to_bytes(), result.shared_secret
        ct, shared = self.kem.encaps(pair, message)
        return ct.u_hat.astype("<u2").tobytes() + ct.v_compressed.tobytes(), shared

    def decaps(self, blob, pair=None):
        pair = pair or self.pair
        if self.lac:
            ciphertext = Ciphertext.from_bytes(self.params, blob)
            return self.kem.decaps(pair.secret_key, ciphertext)
        return self.kem.decaps(pair, NEWHOPE_SCHEME._parse_ct(self.params, blob))

    def tamper(self, blob):
        """A well-formed ciphertext the FO check must reject."""
        if self.lac:
            good = Ciphertext.from_bytes(self.params, blob)
            return Ciphertext(
                self.params, np.mod(good.u + 1, self.params.q), good.v_compressed
            ).to_bytes()
        return bytes([blob[0] ^ 0x01]) + blob[1:]

    def items(self, op, count):
        """``count`` valid ``submit`` inputs for ``op``."""
        if op == "KEYGEN":
            return [bytes([i]) + SEED[1:] for i in range(count)]
        messages = _messages(count, self.params)
        if op == "ENCAPS":
            return messages
        return [self.encaps(m)[0] for m in messages]

    def expected(self, op, items):
        """What ``submit`` must resolve to, via :meth:`canon`."""
        if op == "KEYGEN":
            return [self.pair_bytes(self.kem.keygen(seed)) for seed in items]
        return [self.encaps(i) if op == "ENCAPS" else self.decaps(i) for i in items]

    def canon(self, op, results):
        if op == "KEYGEN":
            return [self.pair_bytes(pair) for pair in results]
        return list(results)

    def submit(self, backend, op, items, **kwargs):
        pairs = None if op == "KEYGEN" else [self.pair] * len(items)
        return backend.submit(self.scheme, self.params, op, pairs, items, **kwargs)


_SCHEMES = {"lac": (LAC_SCHEME, LAC_128), "newhope": (NEWHOPE_SCHEME, NEWHOPE_512)}
_REFERENCES = {}

#: every backend × every scheme it supports (cosim prices only LAC)
_CELLS = [
    (backend_name, scheme_name)
    for backend_name in BACKEND_NAMES
    for scheme_name in _SCHEMES
    if (backend_name, scheme_name) != ("cosim", "newhope")
]


@pytest.fixture(params=_CELLS, ids="-".join)
def cell(request, process_backend, cosim_backend):
    """``(backend, scalar reference)`` for one supported matrix cell."""
    backend_name, scheme_name = request.param
    if scheme_name not in _REFERENCES:
        _REFERENCES[scheme_name] = _Scalar(*_SCHEMES[scheme_name])
    with _backend_named(backend_name, process_backend, cosim_backend) as impl:
        assert impl.supports_scheme(_REFERENCES[scheme_name].scheme)
        yield impl, _REFERENCES[scheme_name]


@pytest.fixture(params=OPS)
def op(request):
    return request.param


class TestConformance:
    """The cross-backend contract: (backend × scheme × op) through the
    one ``submit``, scalar parity on every path."""

    @pytest.mark.parametrize("count", [4, 1], ids=["batch", "one"])
    def test_bit_identical_to_scalar(self, cell, op, count):
        backend, ref = cell
        items = ref.items(op, count)
        got = ref.submit(backend, op, items).result()
        assert len(got) == count
        assert ref.canon(op, got) == ref.expected(op, items)

    def test_implicit_rejection_matches_scalar(self, cell):
        backend, ref = cell
        good = ref.items("DECAPS", 1)[0]
        tampered = ref.tamper(good)
        got = ref.submit(backend, "DECAPS", [good, tampered]).result()
        assert got == [ref.decaps(good), ref.decaps(tampered)]
        assert got[0] != got[1]

    def test_mixed_pairs_in_one_batch_match_scalar(self, cell):
        """One pair per item: lanes of two hosted keys, interleaved, one
        of them tampered — each answered under its own key."""
        backend, ref = cell
        pairs = [ref.pair, ref.other, ref.other, ref.pair, ref.other]
        messages = _messages(len(pairs), ref.params)
        want = [ref.encaps(m, p) for m, p in zip(messages, pairs)]
        assert (
            backend.submit(ref.scheme, ref.params, "ENCAPS", pairs, messages).result()
            == want
        )
        blobs = [ct for ct, _ in want]
        blobs[2] = ref.tamper(blobs[2])
        got = backend.submit(ref.scheme, ref.params, "DECAPS", pairs, blobs).result()
        assert got == [ref.decaps(b, p) for b, p in zip(blobs, pairs)]
        assert [g == shared for g, (_, shared) in zip(got, want)] == [
            True, True, False, True, True,
        ]

    def test_one_pair_per_item_is_enforced(self, cell):
        backend, ref = cell
        with pytest.raises(ValueError, match="one pair per item"):
            backend.submit(
                ref.scheme, ref.params, "ENCAPS", [ref.pair], _messages(2, ref.params)
            )

    def test_slots_report_what_runs_at_once(self, cell, request):
        backend, _ = cell
        # the fixtures' pools
        pooled = {"thread": 2, "process": 2}
        made_as = request.node.callspec.params["cell"][0]
        assert backend.slots == pooled.get(made_as, 1)

    def test_keygen_convenience_and_fresh_randomness(self, cell):
        backend, ref = cell
        # the synchronous convenience rides the same path
        assert ref.pair_bytes(backend.keygen(ref.params, SEED)) == ref.pair_bytes(
            ref.pair
        )
        first, second = ref.submit(backend, "KEYGEN", [None, None]).result()
        assert ref.pair_bytes(first) != ref.pair_bytes(second)

    def test_empty_batches_resolve_immediately(self, cell, op):
        backend, ref = cell
        assert ref.submit(backend, op, []).result() == []

    def test_unknown_op_is_rejected(self, cell):
        backend, ref = cell
        with pytest.raises(ValueError, match="unknown KEM op"):
            ref.submit(backend, "SIGN", [b"x"]).result()

    def test_wrapper_runs_in_execution_context(self, cell, op):
        backend, ref = cell
        seen = []

        def wrapper(work):
            seen.append(threading.get_ident())
            try:
                return work()
            finally:
                seen.append("after")

        results = ref.submit(backend, op, ref.items(op, 2), wrapper=wrapper).result()
        assert len(results) == 2
        assert seen[1:] == ["after"] and len(seen) == 2
        # a pooled backend never runs the kernel on the submitting
        # thread — for a service that thread is the event loop
        assert (seen[0] == threading.get_ident()) is (backend.name == "inline")

    def test_wrapper_exception_fails_the_future(self, cell, op):
        backend, ref = cell
        def wrapper(work):
            raise RuntimeError("injected by wrapper")

        future = ref.submit(backend, op, ref.items(op, 1), wrapper=wrapper)
        with pytest.raises(RuntimeError, match="injected by wrapper"):
            future.result()

    def test_stats_count_submissions_and_failures(self, cell, op):
        backend, ref = cell
        items = ref.items(op, 1)
        before = backend.stats()
        ref.submit(backend, op, items).result()

        def boom(work):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ref.submit(backend, op, items, wrapper=boom).result()
        after = backend.stats()
        assert after["name"] == backend.name
        assert after["submitted"] == before["submitted"] + 2
        assert after["completed"] == before["completed"] + 1
        assert after["failed"] == before["failed"] + 1

    def test_supports_scheme_split(self, backend):
        assert backend.supports_scheme(LAC_SCHEME)
        expected = not isinstance(backend, CosimBackend)
        assert backend.supports_scheme(NEWHOPE_SCHEME) is expected

    def test_cosim_declines_newhope(self, cosim_backend):
        pair = NEWHOPE_SCHEME.keygen(NEWHOPE_512, SEED)
        with pytest.raises(UnsupportedScheme):
            cosim_backend.register_key(NEWHOPE_SCHEME, NEWHOPE_512, pair)
        # ...and a batch that skipped registration is refused, not
        # served with unmodelled cycle tallies
        with pytest.raises(UnsupportedScheme):
            cosim_backend.submit(
                NEWHOPE_SCHEME, NEWHOPE_512, "ENCAPS", [pair], [bytes(32)]
            ).result()

    def test_register_key_returns_invalidation_handles(self, cell):
        backend, ref = cell
        fingerprints = backend.register_key(ref.scheme, ref.params, ref.pair)
        assert len(fingerprints) == (3 if ref.lac else 0)
        dropped = backend.invalidate_key(fingerprints)
        # only backends with a parent-side transform cache hold entries
        cached = ref.lac and backend.transform_cache is not None
        assert dropped == (3 if cached else 0)


class TestLifecycle:
    @pytest.mark.parametrize(
        "make",
        [InlineBackend, lambda: ThreadBackend(workers=1), CosimBackend],
        ids=["inline", "thread", "cosim"],
    )
    def test_close_is_idempotent_and_rejects_new_work(self, make, scalar):
        _, pair = scalar
        backend = make()
        _encaps(backend, pair, _messages(1)).result()
        backend.close()
        backend.close()  # idempotent
        assert backend.closed
        with pytest.raises(RuntimeError, match="closed"):
            _encaps(backend, pair, _messages(1))

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize(
        "make", [ThreadBackend, ProcessBackend], ids=["thread", "process"]
    )
    def test_workers_below_one_are_rejected(self, make, workers):
        """A pool of no workers is refused when the backend is built,
        not answered with the default size or at the first submit."""
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make(workers=workers)

    def test_warmup_roundtrips_each_param_set(self):
        backend = InlineBackend()
        backend.warmup([LAC_128])
        stats = backend.stats()
        assert stats["submitted"] == stats["completed"] == 3  # keygen+encaps+decaps
        backend.close()

    def test_kill_worker_is_a_noop_without_processes(self):
        assert InlineBackend().kill_worker() is False
        backend = ThreadBackend(workers=1)
        assert backend.kill_worker() is False
        backend.close()
        cosim = CosimBackend()
        assert cosim.kill_worker() is False  # the simulated core never dies
        cosim.close()

    @pytest.mark.parametrize("made_as", ["owned", "inline", "cosim"])
    def test_slots_is_the_pool_size(self, made_as, scalar):
        """``slots`` is fixed when the backend is built: an owned pool's
        size, and one for the caller's thread or the simulated core."""
        with contextlib.ExitStack() as stack:
            if made_as == "owned":
                backend, want = ThreadBackend(workers=3), 3
            elif made_as == "inline":
                backend, want = InlineBackend(), 1
            else:
                backend, want = CosimBackend(), 1
            stack.callback(backend.close)
            assert backend.slots == want
            # ...and it serves, bit-identical, at that size
            kem, pair = scalar
            message = _messages(1)[0]
            [(ct, shared)] = _encaps(backend, pair, [message]).result()
            reference = kem.encaps(pair.public_key, message)
            assert (ct, shared) == (
                reference.ciphertext.to_bytes(),
                reference.shared_secret,
            )
            assert backend.slots == want


class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("inline", "thread", "process", "cosim")
        assert DEFAULT_BACKEND in BACKEND_NAMES

    def test_resolve_rejects_unknown_names(self):
        for name in BACKEND_NAMES:
            check_backend_name(name)
        for name in ("gpu", "", "Thread"):
            with pytest.raises(ValueError, match="unknown KEM backend"):
                check_backend_name(name)
            with pytest.raises(ValueError, match="unknown KEM backend"):
                create_backend(name)

    def test_create_backend_types(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        sized = create_backend("thread", workers=2)
        assert isinstance(sized, ThreadBackend)
        assert sized.slots == 2
        sized.close()
        with pytest.raises(ValueError):
            create_backend("thread", workers=0)

    def test_create_backend_cosim_resolves_profile(self):
        backend = create_backend("cosim")
        assert isinstance(backend, CosimBackend)
        assert backend.profile == "ise"
        backend.close()
        explicit = CosimBackend(profile="const_bch")
        assert explicit.profile == "const_bch"
        explicit.close()
        with pytest.raises(ValueError, match="cosim profile"):
            CosimBackend(profile="fpga")

    def test_service_config_resolves_backend(self):
        assert ServiceConfig().backend == DEFAULT_BACKEND == "thread"
        assert ServiceConfig(backend="inline").backend == "inline"
        with pytest.raises(ValueError, match="unknown KEM backend 'gpu'"):
            ServiceConfig(backend="gpu")

    def test_unsized_services_own_distinct_pools(self):
        """A service that names no backend builds its own pool of
        ``DEFAULT_THREAD_WORKERS`` threads and closes it at shutdown —
        there is no process-wide pool to share or to outlive it."""

        def pool_thread(backend):
            ran_on = []

            def wrapper(work):
                ran_on.append(threading.current_thread())
                return work()

            backend.submit(
                LAC_SCHEME, LAC_128, "KEYGEN", None, [SEED], wrapper=wrapper
            ).result()
            return ran_on[0]

        async def main():
            services = [await KemService(ServiceConfig()).start() for _ in range(2)]
            backends = [svc.backend for svc in services]
            assert backends[0] is not backends[1]
            threads = []
            for backend in backends:
                assert isinstance(backend, ThreadBackend)
                assert backend.slots == DEFAULT_THREAD_WORKERS
                threads.append(pool_thread(backend))
            assert threads[0] is not threads[1]
            assert threading.main_thread() not in threads
            await services[0].shutdown()
            assert backends[0].closed and not threads[0].is_alive()
            assert not backends[1].closed and threads[1].is_alive()
            await services[1].shutdown()
            assert backends[1].closed and not threads[1].is_alive()

        asyncio.run(asyncio.wait_for(main(), 30.0))


class TestProcessSupervision:
    """Crash detection, typed failure, bounded restart (the tentpole)."""

    def test_kill_worker_surfaces_typed_crash_then_recovers(
        self, process_backend, scalar
    ):
        kem, pair = scalar
        restarts_before = process_backend.stats()["restarts"]
        assert process_backend.kill_worker() is True
        with pytest.raises(WorkerCrashed) as excinfo:
            _encaps(process_backend, pair, _messages(4)).result()
        assert excinfo.value.reason == "worker-crashed"
        # one crash incident costs exactly one restart...
        stats = process_backend.stats()
        assert stats["restarts"] == restarts_before + 1
        assert stats["broken"] is False
        # ...and the rebuilt pool is bit-identical to the scalar again
        message = _messages(1)[0]
        [(_, shared)] = _encaps(process_backend, pair, [message]).result()
        assert shared == kem.encaps(pair.public_key, message).shared_secret

    def test_restart_budget_exhaustion_fails_fast(self, scalar):
        _, pair = scalar
        backend = ProcessBackend(workers=1, warm_params=[LAC_128])
        try:
            for crash in range(DEFAULT_MAX_RESTARTS + 1):
                backend.warmup([LAC_128])  # (re)spawns the pool
                assert backend.stats()["broken"] is False
                assert backend.kill_worker() is True
                with pytest.raises(WorkerCrashed):
                    _encaps(backend, pair, _messages(1)).result()
                assert backend.stats()["restarts"] == crash + 1
            # budget spent: the backend declares itself broken and every
            # later submission fails fast instead of respawning forever
            assert backend.stats()["broken"] is True
            with pytest.raises(WorkerCrashed, match="exceeded"):
                _encaps(backend, pair, _messages(1)).result()
        finally:
            backend.close()


    @pytest.mark.parametrize("gated", [True, False], ids=["pool-after-close", "racing"])
    def test_close_without_wait_leaves_no_worker(self, scalar, gated, monkeypatch):
        """``close(wait=False)`` with an ENCAPS still on its supervisor
        thread: the batch resolves, and no worker pool or process
        outlives the backend.  ``pool-after-close`` holds the batch
        until ``close`` has returned, so it asks for a pool only then."""
        _, pair = scalar
        before = set(multiprocessing.active_children())
        backend = ProcessBackend(workers=1, warm_params=[LAC_128])
        gate = threading.Event()
        if gated:
            real_ensure_pool = backend._ensure_pool

            def late_ensure_pool():
                gate.wait(30)
                return real_ensure_pool()

            monkeypatch.setattr(backend, "_ensure_pool", late_ensure_pool)
        future = _encaps(backend, pair, _messages(1))
        backend.close(wait=False)
        gate.set()
        if gated:
            with pytest.raises(RuntimeError, match="closed"):
                future.result(timeout=120)
        else:  # whichever got there first: a result or the refusal
            with contextlib.suppress(RuntimeError):
                future.result(timeout=120)
        assert backend._pool is None
        deadline = time.monotonic() + 60
        while set(multiprocessing.active_children()) - before:
            assert time.monotonic() < deadline, "a worker outlived its backend"
            time.sleep(0.05)


LIFECYCLE_SCRIPT = textwrap.dedent(
    """
    from repro.backend import ProcessBackend
    from repro.errors import WorkerCrashed
    from repro.lac.kem import LacKem
    from repro.lac.params import LAC_128
    from repro.schemes import LAC_SCHEME

    def main():
        def run(op, items):
            return backend.submit(
                LAC_SCHEME, LAC_128, op, [pair] * len(items), items
            ).result()

        pair = LacKem(LAC_128).keygen(bytes(range(64)))
        messages = [bytes([i, 0x5A]) * (LAC_128.message_bytes // 2) for i in range(6)]
        backend = ProcessBackend(workers=2, warm_params=[LAC_128])
        backend.warmup([LAC_128])
        results = run("ENCAPS", messages)
        assert run("DECAPS", [ct for ct, _ in results]) == [s for _, s in results]
        # chaos: kill a worker mid-life, recover, serve again
        assert backend.kill_worker() is True
        try:
            run("ENCAPS", messages)
        except WorkerCrashed:
            pass
        assert run("ENCAPS", messages) == results
        backend.close()
        print("CLEAN")

    if __name__ == "__main__":  # spawned workers re-import this file
        main()
    """
)


class TestProcessWire:
    """One pickled message per worker chunk, whatever keys it names."""

    def test_mixed_key_batch_is_one_trip_per_worker(
        self, process_backend, scalar, monkeypatch
    ):
        kem, pair = scalar
        pairs = [pair, kem.keygen(SEED[::-1]), kem.keygen(bytes(64))]
        lanes = [pairs[i % 3] for i in range(8)]
        messages = _messages(8)
        submits = []
        real_submit = ProcessPoolExecutor.submit

        def counting_submit(pool, fn, /, *args, **kwargs):
            submits.append(fn)
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        results = process_backend.submit(
            LAC_SCHEME, LAC_128, "ENCAPS", lanes, messages
        ).result()
        assert len(submits) <= 2
        expected = [kem.encaps(p.public_key, m) for p, m in zip(lanes, messages)]
        assert results == [
            (ref.ciphertext.to_bytes(), ref.shared_secret) for ref in expected
        ]
        submits.clear()
        shared = process_backend.submit(
            LAC_SCHEME, LAC_128, "DECAPS", lanes, [ct for ct, _ in results]
        ).result()
        assert len(submits) <= 2
        assert shared == [ref.shared_secret for ref in expected]

    def test_worker_transform_cache_stats_surface(self, process_backend, scalar):
        _, pair = scalar
        _encaps(process_backend, pair, _messages(2)).result()
        before = process_backend.stats()["transform_cache"]
        _encaps(process_backend, pair, _messages(2)).result()
        cache = process_backend.stats()["transform_cache"]
        assert cache["scope"] == "workers"
        assert cache["misses"] >= 1
        # the second batch reuses the key transforms its workers built
        assert cache["hits"] > before["hits"]

    def test_register_key_returns_fingerprints_without_parent_cache(
        self, process_backend, scalar
    ):
        _, pair = scalar
        fps = process_backend.register_key(LAC_SCHEME, LAC_128, pair)
        assert len(fps) == 3
        assert all(len(fp) == 16 for fp in fps)
        # worker caches warm lazily: the parent holds no transform cache
        # at all, so invalidation is a no-op
        assert process_backend.transform_cache is None
        assert process_backend.invalidate_key(fps) == 0

    def test_full_lifecycle_exits_without_tracker_warnings(self, tmp_path):
        """Conformance and kill/restart chaos in a subprocess, so
        interpreter shutdown is observed too: it exits cleanly, with no
        ``resource_tracker`` complaint about anything left behind."""
        script = tmp_path / "process_lifecycle.py"
        script.write_text(LIFECYCLE_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout
        assert "resource_tracker" not in proc.stderr
        assert "leaked" not in proc.stderr


class TestServiceIntegration:
    """The backend seam end to end through the serving layer."""

    def test_service_on_explicit_backend_serves_bit_identical(
        self, backend, scalar
    ):
        kem, _ = scalar

        async def main():
            svc = await KemService(
                ServiceConfig(max_batch=4), backend=backend
            ).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            pair = kem.keygen(SEED)
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, LAC_128)
            message = _messages(1)[0]
            ct_bytes, shared = await client.encaps(key_id, message)
            reference = kem.encaps(pair.public_key, message)
            assert ct_bytes == reference.ciphertext.to_bytes()
            assert shared == reference.shared_secret
            assert await client.decaps(key_id, ct_bytes) == shared
            info = await client.info()
            assert info["service"]["backend"] == backend.name
            assert info["service"]["workers"] == backend.slots
            await client.aclose()
            await svc.shutdown()
            # a user-supplied backend is never closed by the service
            assert not backend.closed

        asyncio.run(asyncio.wait_for(main(), 30.0))

    def test_backend_fault_site_is_counted_on_threads(self):
        """SITE_BACKEND on a thread backend: a counted no-op crash."""

        async def main():
            plan = FaultPlan([FaultSpec(SITE_BACKEND, KIND_CRASH, max_fires=1)])
            svc = await KemService(
                ServiceConfig(max_batch=1), fault_plan=plan
            ).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, LAC_128)
            # thread workers are not killable: the request still succeeds
            ct_bytes, shared = await client.encaps(key_id)
            assert await client.decaps(key_id, ct_bytes) == shared
            await client.aclose()
            await svc.shutdown()
            fired = {
                f"{site}:{kind}": count
                for (site, kind), count in sorted(plan.fired.items())
            }
            assert fired[f"{SITE_BACKEND}:{KIND_CRASH}"] == 1
            assert svc.metrics.snapshot()["faults"] == fired

        asyncio.run(asyncio.wait_for(main(), 30.0))

    def test_metrics_surface_backend_stats(self):
        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            key_id = svc.add_keypair(LAC_128, seed=SEED)
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, LAC_128)
            await client.encaps(key_id)
            snap = svc.metrics.snapshot()
            assert snap["backend"] is not None
            assert snap["backend"]["name"] == "thread"
            assert snap["backend"]["submitted"] >= 1
            text = svc.metrics.render_text()
            assert 'kem_worker_restarts_total{backend="thread"} 0' in text
            assert 'kem_backend_batches_total{backend="thread",outcome="completed"}' in text
            # the service's own unsized pool reports its default size
            info = await client.info()
            assert info["service"]["workers"] == DEFAULT_THREAD_WORKERS
            await client.aclose()
            await svc.shutdown()

        asyncio.run(asyncio.wait_for(main(), 30.0))


class TestProcessServiceParity:
    """Acceptance: served results bit-identical on every parameter set
    through the process backend (thread/inline covered above and by the
    service suite)."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_all_param_sets_roundtrip(self, params, process_backend):
        async def main():
            svc = await KemService(
                ServiceConfig(max_batch=4), backend=process_backend
            ).start()
            key_id = svc.add_keypair(params, seed=SEED)
            kem = LacKem(params)
            pair = kem.keygen(SEED)
            client = AsyncKemClient(*(await svc.connect()))
            client.register_key(key_id, params)
            message = bytes(range(params.message_bytes))
            ct_bytes, shared = await client.encaps(key_id, message)
            reference = kem.encaps(pair.public_key, message)
            assert ct_bytes == reference.ciphertext.to_bytes()
            assert shared == reference.shared_secret
            assert await client.decaps(key_id, ct_bytes) == shared
            await client.aclose()
            await svc.shutdown()

        asyncio.run(asyncio.wait_for(main(), 60.0))


class TestCosimServiceParity:
    """Acceptance: ``ServiceConfig(backend="cosim")`` serves every
    parameter set bit-identical to the scalar KEM through the full
    protocol path (the scalar itself is pinned by the frozen vectors in
    ``tests/test_known_answers.py``)."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_all_param_sets_roundtrip(self, params):
        kem = LacKem(params)
        pair = kem.keygen(SEED)
        message = bytes(range(params.message_bytes))
        reference = kem.encaps(pair.public_key, message=message)
        with ThreadedService(
            ServiceConfig(max_batch=4, backend="cosim")
        ) as svc:
            client = KemClient(svc.connect())
            key_id, pk = client.keygen(params, SEED)
            assert pk.to_bytes() == pair.public_key.to_bytes()
            ct_bytes, shared = client.encaps(key_id, message)
            assert ct_bytes == reference.ciphertext.to_bytes()
            assert shared == reference.shared_secret
            assert client.decaps(key_id, ct_bytes) == shared
            client.close()

    def test_declined_registration_does_not_burn_a_key_id(self, cosim_backend):
        async def main():
            svc = await KemService(ServiceConfig(), backend=cosim_backend).start()
            with pytest.raises(UnsupportedScheme):
                svc.add_keypair(NEWHOPE_512, seed=SEED)
            assert svc.hosted_key(1) is None
            # the rejected NewHope key left no hole in the id sequence
            assert svc.add_keypair(LAC_128, seed=SEED) == 1
            await svc.shutdown()

        asyncio.run(asyncio.wait_for(main(), 30.0))
