"""Backend conformance suite: every :class:`repro.backend.KemBackend`
implementation must be bit-identical to the scalar :class:`LacKem`.

The suite runs the same contract checks over the inline, thread,
process and cosim backends — encaps/decaps/keygen parity (including implicit
rejection of tampered ciphertexts), degenerate batch sizes, the
``wrapper`` execution hook, ``close()`` idempotence and the stats
counters — then covers the registry (name/env selection), the process
backend's crash supervision (``kill_worker`` -> typed
:class:`WorkerCrashed` -> bounded restart) and the ``backend`` chaos
fault site end to end through the service.

The process backend is module-scoped (one spawn, ``LAC_128``-only
warmup) to keep the spawn cost paid once.
"""

import asyncio

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    COSIM_PROFILE_ENV_VAR,
    DEFAULT_BACKEND,
    CosimBackend,
    InlineBackend,
    KemBackend,
    ProcessBackend,
    ThreadBackend,
    create_backend,
    default_thread_backend,
    resolve_backend_name,
)
from repro.errors import WorkerCrashed
from repro.faults.plan import KIND_CRASH, SITE_BACKEND, FaultPlan, FaultSpec
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_128
from repro.lac.pke import Ciphertext
from repro.serve import (
    AsyncKemClient,
    KemClient,
    KemService,
    ServiceConfig,
    ThreadedService,
)

SEED = bytes(range(64))


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessBackend(workers=2, warm_params=[LAC_128], min_chunk=1)
    backend.warmup([LAC_128])
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def cosim_backend():
    backend = CosimBackend()
    yield backend  # module-scoped: the cycle models are built once
    backend.close()


@pytest.fixture(params=["inline", "thread", "process", "cosim"])
def backend(request, process_backend, cosim_backend):
    if request.param == "process":
        yield process_backend  # module-scoped: spawn cost paid once
        return
    if request.param == "cosim":
        yield cosim_backend
        return
    impl: KemBackend = (
        InlineBackend() if request.param == "inline" else ThreadBackend(workers=2)
    )
    yield impl
    impl.close()


@pytest.fixture(scope="module")
def scalar():
    kem = LacKem(LAC_128)
    pair = kem.keygen(SEED)
    return kem, pair


def _messages(count, params=LAC_128):
    return [bytes([i & 0xFF, 0x5A]) * (params.message_bytes // 2) for i in range(count)]


class TestConformance:
    """The cross-backend contract: scalar parity on every path."""

    def test_encaps_bit_identical_to_scalar(self, backend, scalar):
        kem, pair = scalar
        messages = _messages(6)
        results = backend.submit_encaps(LAC_128, pair.public_key, messages).result()
        assert len(results) == len(messages)
        for message, result in zip(messages, results):
            reference = kem.encaps(pair.public_key, message)
            assert result.ciphertext.to_bytes() == reference.ciphertext.to_bytes()
            assert result.shared_secret == reference.shared_secret

    def test_decaps_bit_identical_to_scalar(self, backend, scalar):
        kem, pair = scalar
        cts = [kem.encaps(pair.public_key, m).ciphertext for m in _messages(5)]
        shared = backend.submit_decaps(LAC_128, pair.secret_key, cts).result()
        assert shared == [kem.decaps(pair.secret_key, ct) for ct in cts]

    def test_implicit_rejection_matches_scalar(self, backend, scalar):
        kem, pair = scalar
        good = kem.encaps(pair.public_key, _messages(1)[0]).ciphertext
        tampered = Ciphertext(
            LAC_128, np.mod(good.u + 1, LAC_128.q), good.v_compressed
        )
        got = backend.submit_decaps(
            LAC_128, pair.secret_key, [good, tampered]
        ).result()
        assert got[0] == kem.decaps(pair.secret_key, good)
        assert got[1] == kem.decaps(pair.secret_key, tampered)
        assert got[0] != got[1]

    def test_keygen_deterministic_from_seed(self, backend, scalar):
        kem, _ = scalar
        (pair,) = backend.submit_keygen(LAC_128, [SEED]).result()
        reference = kem.keygen(SEED)
        assert pair.public_key.to_bytes() == reference.public_key.to_bytes()
        assert pair.secret_key.to_bytes() == reference.secret_key.to_bytes()
        # the synchronous convenience rides the same path
        assert (
            backend.keygen(LAC_128, SEED).public_key.to_bytes()
            == reference.public_key.to_bytes()
        )

    def test_keygen_none_seed_uses_fresh_randomness(self, backend):
        pairs = backend.submit_keygen(LAC_128, [None, None]).result()
        assert pairs[0].public_key.to_bytes() != pairs[1].public_key.to_bytes()

    def test_empty_batches_resolve_immediately(self, backend, scalar):
        _, pair = scalar
        assert backend.submit_encaps(LAC_128, pair.public_key, []).result() == []
        assert backend.submit_decaps(LAC_128, pair.secret_key, []).result() == []
        assert backend.submit_keygen(LAC_128, []).result() == []

    def test_batch_size_one(self, backend, scalar):
        kem, pair = scalar
        message = _messages(1)[0]
        (result,) = backend.submit_encaps(
            LAC_128, pair.public_key, [message]
        ).result()
        reference = kem.encaps(pair.public_key, message)
        assert result.ciphertext.to_bytes() == reference.ciphertext.to_bytes()
        assert result.shared_secret == reference.shared_secret

    def test_wrapper_runs_in_execution_context(self, backend, scalar):
        _, pair = scalar
        seen = []

        def wrapper(work):
            seen.append("before")
            try:
                return work()
            finally:
                seen.append("after")

        results = backend.submit_encaps(
            LAC_128, pair.public_key, _messages(2), wrapper=wrapper
        ).result()
        assert len(results) == 2
        assert seen == ["before", "after"]

    def test_wrapper_exception_fails_the_future(self, backend, scalar):
        _, pair = scalar

        def wrapper(work):
            raise RuntimeError("injected by wrapper")

        future = backend.submit_encaps(
            LAC_128, pair.public_key, _messages(1), wrapper=wrapper
        )
        with pytest.raises(RuntimeError, match="injected by wrapper"):
            future.result()

    def test_stats_count_submissions_and_failures(self, backend, scalar):
        _, pair = scalar
        before = backend.stats()
        backend.submit_encaps(LAC_128, pair.public_key, _messages(1)).result()

        def boom(work):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            backend.submit_encaps(
                LAC_128, pair.public_key, _messages(1), wrapper=boom
            ).result()
        after = backend.stats()
        assert after["name"] == backend.name
        assert after["submitted"] == before["submitted"] + 2
        assert after["completed"] == before["completed"] + 1
        assert after["failed"] == before["failed"] + 1


class TestLifecycle:
    @pytest.mark.parametrize(
        "make",
        [InlineBackend, lambda: ThreadBackend(workers=1), CosimBackend],
        ids=["inline", "thread", "cosim"],
    )
    def test_close_is_idempotent_and_rejects_new_work(self, make, scalar):
        _, pair = scalar
        backend = make()
        backend.submit_encaps(LAC_128, pair.public_key, _messages(1)).result()
        backend.close()
        backend.close()  # idempotent
        assert backend.closed
        with pytest.raises(RuntimeError, match="closed"):
            backend.submit_encaps(LAC_128, pair.public_key, _messages(1))

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

    def test_cosim_opts_out_of_autoscaling(self):
        backend = CosimBackend()
        assert backend.workers is None  # one simulated core, not a pool
        backend.close()


class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("inline", "thread", "process", "cosim")
        assert DEFAULT_BACKEND in BACKEND_NAMES

    def test_resolve_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend_name("inline") == "inline"

    def test_resolve_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "inline")
        assert resolve_backend_name() == "inline"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_resolve_rejects_unknown_names(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown KEM backend"):
            resolve_backend_name("gpu")
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown KEM backend"):
            resolve_backend_name()

    def test_create_backend_types(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        sized = create_backend("thread", workers=2)
        assert isinstance(sized, ThreadBackend)
        sized.close()
        with pytest.raises(ValueError):
            create_backend("thread", workers=0)

    def test_create_backend_cosim_resolves_profile(self, monkeypatch):
        monkeypatch.delenv(COSIM_PROFILE_ENV_VAR, raising=False)
        backend = create_backend("cosim")
        assert isinstance(backend, CosimBackend)
        assert backend.profile == "ise"
        backend.close()
        monkeypatch.setenv(COSIM_PROFILE_ENV_VAR, "ref")
        from_env = create_backend("cosim")
        assert from_env.profile == "ref"
        from_env.close()
        explicit = CosimBackend(profile="const_bch")
        assert explicit.profile == "const_bch"
        explicit.close()
        with pytest.raises(ValueError, match="cosim profile"):
            CosimBackend(profile="fpga")

    def test_plain_thread_request_shares_the_default_backend(self):
        first = create_backend("thread")
        second = create_backend(None)
        assert first is second is default_thread_backend()
        assert first.executor is default_thread_backend().executor  # one pool
        # the shared default must survive close() — it is process-wide
        first.close()
        assert not first.closed

    def test_service_config_resolves_backend(self, monkeypatch):
        assert ServiceConfig().resolved_backend() == DEFAULT_BACKEND
        assert ServiceConfig(backend="inline").resolved_backend() == "inline"
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert ServiceConfig().resolved_backend() == "process"
        with pytest.raises(ValueError):
            ServiceConfig(backend="gpu")


class TestProcessSupervision:
    """Crash detection, typed failure, bounded restart (the tentpole)."""

    def test_kill_worker_surfaces_typed_crash_then_recovers(
        self, process_backend, scalar
    ):
        kem, pair = scalar
        restarts_before = process_backend.stats()["restarts"]
        assert process_backend.kill_worker() is True
        with pytest.raises(WorkerCrashed) as excinfo:
            process_backend.submit_encaps(
                LAC_128, pair.public_key, _messages(4)
            ).result()
        assert excinfo.value.reason == "worker-crashed"
        # one crash incident costs exactly one restart...
        stats = process_backend.stats()
        assert stats["restarts"] == restarts_before + 1
        assert stats["broken"] is False
        # ...and the rebuilt pool is bit-identical to the scalar again
        message = _messages(1)[0]
        (result,) = process_backend.submit_encaps(
            LAC_128, pair.public_key, [message]
        ).result()
        assert (
            result.shared_secret == kem.encaps(pair.public_key, message).shared_secret
        )

    def test_restart_budget_exhaustion_fails_fast(self, scalar):
        _, pair = scalar
        backend = ProcessBackend(
            workers=1, warm_params=[LAC_128], max_restarts=0, min_chunk=1
        )
        try:
            backend.warmup([LAC_128])
            assert backend.kill_worker() is True
            with pytest.raises(WorkerCrashed):
                backend.submit_encaps(
                    LAC_128, pair.public_key, _messages(1)
                ).result()
            # budget spent: the backend declares itself broken and every
            # later submission fails fast instead of respawning forever
            assert backend.stats()["broken"] is True
            with pytest.raises(WorkerCrashed, match="exceeded"):
                backend.submit_encaps(
                    LAC_128, pair.public_key, _messages(1)
                ).result()
        finally:
            backend.close()


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


class TestCrossSchemeConformance:
    """The scheme seam: NewHope bit-parity vs ``repro.newhope.cca``.

    Non-LAC schemes reach backends through ``register_scheme_key`` +
    ``submit_task`` (the server's dispatch path for anything without
    typed LAC hooks), so the sweep drives exactly those entry points
    over the inline, thread and process backends and pins the results
    against direct ``NewHopeCcaKem`` calls.  The cosim backend models
    only LAC cycle costs and must *refuse* the registration with a
    typed :class:`UnsupportedScheme` instead of tallying nonsense.
    """

    NH_SEED = bytes(range(64))

    def _reference(self, params):
        from repro.newhope.cca import NewHopeCcaKem

        kem = NewHopeCcaKem(params)
        return kem, kem.keygen(self.NH_SEED)

    def test_supports_scheme_split(self, backend):
        from repro.schemes import LAC_SCHEME, NEWHOPE_SCHEME

        assert backend.supports_scheme(LAC_SCHEME)
        expected = not isinstance(backend, CosimBackend)
        assert backend.supports_scheme(NEWHOPE_SCHEME) is expected

    def test_cosim_rejects_newhope_registration(self, cosim_backend):
        from repro.errors import UnsupportedScheme
        from repro.newhope.params import NEWHOPE_512
        from repro.schemes import NEWHOPE_SCHEME

        pair = NEWHOPE_SCHEME.keygen(NEWHOPE_512, self.NH_SEED)
        with pytest.raises(UnsupportedScheme):
            cosim_backend.register_scheme_key(NEWHOPE_SCHEME, NEWHOPE_512, pair)

    def test_newhope_encaps_bit_identical(self, backend):
        from repro.newhope.params import NEWHOPE_512
        from repro.schemes import NEWHOPE_SCHEME

        if not backend.supports_scheme(NEWHOPE_SCHEME):
            pytest.skip("cosim models only LAC")
        kem, sk = self._reference(NEWHOPE_512)
        pair = NEWHOPE_SCHEME.keygen(NEWHOPE_512, self.NH_SEED)
        backend.register_scheme_key(NEWHOPE_SCHEME, NEWHOPE_512, pair)
        messages = [bytes([i]) * 32 for i in range(4)]
        got = backend.submit_task(
            lambda: NEWHOPE_SCHEME.encaps_many(NEWHOPE_512, pair, messages)
        ).result()
        for message, (ct_bytes, shared) in zip(messages, got):
            ct, want_shared = kem.encaps(sk, message)
            want_ct = (
                ct.u_hat.astype("<u2").tobytes() + ct.v_compressed.tobytes()
            )
            assert ct_bytes == want_ct
            assert shared == want_shared

    def test_newhope_decaps_round_trip_and_rejection(self, backend):
        from repro.newhope.params import NEWHOPE_512
        from repro.schemes import NEWHOPE_SCHEME

        if not backend.supports_scheme(NEWHOPE_SCHEME):
            pytest.skip("cosim models only LAC")
        kem, sk = self._reference(NEWHOPE_512)
        pair = NEWHOPE_SCHEME.keygen(NEWHOPE_512, self.NH_SEED)
        messages = [bytes([7 + i]) * 32 for i in range(3)]
        blobs = [
            ct for ct, _ in NEWHOPE_SCHEME.encaps_many(NEWHOPE_512, pair, messages)
        ]
        want = [s for _, s in NEWHOPE_SCHEME.encaps_many(NEWHOPE_512, pair, messages)]
        got = backend.submit_task(
            lambda: NEWHOPE_SCHEME.decaps_many(NEWHOPE_512, pair, blobs)
        ).result()
        assert got == want
        # FO rejection parity: a flipped ciphertext byte must produce
        # exactly the scalar reference's (rejecting) secret, not a crash
        tampered = bytes([blobs[0][0] ^ 0x01]) + blobs[0][1:]
        [via_backend] = backend.submit_task(
            lambda: NEWHOPE_SCHEME.decaps_many(NEWHOPE_512, pair, [tampered])
        ).result()
        direct = kem.decaps(sk, NEWHOPE_SCHEME._parse_ct(NEWHOPE_512, tampered))
        assert via_backend == direct
        assert via_backend != want[0]
