"""The process backend's zero-copy wire: segment pool, ship-once keys,
crash survival, and shared-memory hygiene.

Covers the pieces the conformance suite (``test_backend.py``) exercises
only implicitly: :class:`repro.backend.shm.SegmentPool` semantics,
the forced :class:`WorkerKeyMiss` -> reship retry, the bytes-wire
fallback, segment survival across a worker crash/restart cycle, and —
in a subprocess, so interpreter shutdown is observed too — that a full
serve/kill/restart/close cycle leaves ``/dev/shm`` clean with no
``resource_tracker`` warnings.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.backend import ProcessBackend, SegmentPool, shm_available
from repro.backend.shm import MIN_SEGMENT_BYTES
from repro.errors import WorkerCrashed
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.ring.cache import fingerprint
from repro.schemes import LAC_SCHEME

SEED = bytes(range(64))

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def _messages(count, params=LAC_128):
    return [bytes([i & 0xFF, 0xA5]) * (params.message_bytes // 2) for i in range(count)]


def _encaps(backend, pair, messages):
    """``(ct_bytes, shared)`` per message through the one ``submit``."""
    return backend.submit(
        LAC_SCHEME, LAC_128, "ENCAPS", [pair] * len(messages), messages
    ).result()


def _decaps(backend, pair, blobs):
    return backend.submit(
        LAC_SCHEME, LAC_128, "DECAPS", [pair] * len(blobs), blobs
    ).result()


def _scalar_encaps(kem, pair, message):
    reference = kem.encaps(pair.public_key, message)
    return reference.ciphertext.to_bytes(), reference.shared_secret


def _shm_names():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(scope="module")
def backend():
    impl = ProcessBackend(workers=2, warm_params=[LAC_128], min_chunk=1)
    impl.warmup([LAC_128])
    yield impl
    impl.close()


@pytest.fixture(scope="module")
def scalar():
    kem = LacKem(LAC_128)
    return kem, kem.keygen(SEED)


class TestSegmentPool:
    def test_size_class_rounds_to_powers_of_two(self):
        pool = SegmentPool()
        try:
            small = pool.acquire(1)
            assert small.size_class == MIN_SEGMENT_BYTES
            big = pool.acquire(MIN_SEGMENT_BYTES + 1)
            assert big.size_class == 2 * MIN_SEGMENT_BYTES
            assert len(pool) == 2
        finally:
            pool.close()

    def test_release_enables_reuse(self):
        pool = SegmentPool()
        try:
            first = pool.acquire(100)
            pool.release(first)
            second = pool.acquire(200)  # same size class -> same segment
            assert second is first
            stats = pool.stats()
            assert stats == {
                "segments": 1,
                "bytes": MIN_SEGMENT_BYTES,
                "created": 1,
                "reused": 1,
            }
        finally:
            pool.close()

    def test_segments_are_writable_and_named(self):
        pool = SegmentPool()
        try:
            segment = pool.acquire(64)
            segment.buf[:4] = b"\xde\xad\xbe\xef"
            assert bytes(segment.buf[:4]) == b"\xde\xad\xbe\xef"
            assert segment.name in _shm_names()
        finally:
            pool.close()

    def test_close_unlinks_everything(self):
        pool = SegmentPool()
        names = {pool.acquire(1).name, pool.acquire(MIN_SEGMENT_BYTES + 1).name}
        pool.close()
        assert not (names & _shm_names())
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.acquire(1)

    def test_negative_size_rejected(self):
        pool = SegmentPool()
        try:
            with pytest.raises(ValueError):
                pool.acquire(-1)
        finally:
            pool.close()


class TestShmWire:
    def test_encaps_decaps_over_shm_matches_scalar(self, backend, scalar):
        kem, pair = scalar
        messages = _messages(6)
        results = _encaps(backend, pair, messages)
        assert results == [_scalar_encaps(kem, pair, m) for m in messages]
        decapsulated = _decaps(backend, pair, [ct for ct, _ in results])
        assert decapsulated == [shared for _, shared in results]
        shm = backend.stats()["shm"]
        assert shm["enabled"] is True
        assert shm["created"] >= 1

    def test_segments_are_reused_across_batches(self, backend, scalar):
        _, pair = scalar
        before = backend.stats()["shm"]
        for _ in range(3):
            _encaps(backend, pair, _messages(4))
        after = backend.stats()["shm"]
        assert after["reused"] > before["reused"]

    def test_worker_cache_and_key_stats_surface(self, backend, scalar):
        _, pair = scalar
        _encaps(backend, pair, _messages(2))
        _encaps(backend, pair, _messages(2))
        stats = backend.stats()
        cache = stats["transform_cache"]
        assert cache["scope"] == "workers"
        assert cache["hits"] >= 1  # second batch reuses the key transforms
        assert cache["misses"] >= 1
        keys = stats["worker_keys"]
        assert keys["ships"] >= 1
        assert keys["hits"] >= 1

    def test_register_key_returns_fingerprints_without_parent_warming(
        self, backend, scalar
    ):
        _, pair = scalar
        fps = backend.register_key(LAC_SCHEME, LAC_128, pair)
        assert len(fps) == 3
        assert all(len(fp) == 16 for fp in fps)
        # worker caches warm lazily: the parent holds no transform cache
        # at all, so invalidation is a no-op
        assert backend.transform_cache is None
        assert backend.invalidate_key(fps) == 0

    def test_forced_key_miss_retries_with_blob(self, backend):
        # a fresh key whose ship count is forged to "everyone has it":
        # the fp-only reference must miss in the workers and the parent
        # must recover by reshipping the blob — transparently
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes([7]) * 64)
        pk_bytes = pair.public_key.to_bytes()
        fp = fingerprint(b"wire-pk", LAC_128.name.encode(), pk_bytes)
        with backend._ship_lock:
            backend._shipped[fp] = backend._workers
        retries_before = backend.stats()["worker_keys"]["miss_retries"]
        message = _messages(1)[0]
        assert _encaps(backend, pair, [message]) == [
            _scalar_encaps(kem, pair, message)
        ]
        assert (
            backend.stats()["worker_keys"]["miss_retries"] > retries_before
        )

    def test_segments_survive_worker_crash_and_restart(self, backend, scalar):
        kem, pair = scalar
        segments_before = backend.stats()["shm"]["segments"]
        assert backend.kill_worker() is True
        with pytest.raises(WorkerCrashed):
            _encaps(backend, pair, _messages(4))
        # parent-owned segments survived the pool rebuild...
        assert backend.stats()["shm"]["segments"] == segments_before
        # ...and the fresh pool is bit-identical again (the ship table
        # was reset, so the key blob reships without a miss)
        message = _messages(1)[0]
        assert _encaps(backend, pair, [message]) == [
            _scalar_encaps(kem, pair, message)
        ]


class TestBytesWireFallback:
    def test_bytes_wire_is_bit_identical_and_allocates_nothing(self, monkeypatch):
        kem = LacKem(LAC_128)
        pair = kem.keygen(SEED)
        # a host without usable shared memory: the backend picks the
        # bytes wire at construction
        monkeypatch.setattr("repro.backend.process.shm_available", lambda: False)
        backend = ProcessBackend(workers=1, warm_params=[LAC_128], min_chunk=1)
        try:
            messages = _messages(3)
            results = _encaps(backend, pair, messages)
            assert results == [_scalar_encaps(kem, pair, m) for m in messages]
            decapsulated = _decaps(backend, pair, [ct for ct, _ in results])
            assert decapsulated == [shared for _, shared in results]
            shm = backend.stats()["shm"]
            assert shm["enabled"] is False
            assert shm["created"] == 0
        finally:
            backend.close()

    def test_runtime_shm_failure_falls_back_mid_flight(self, monkeypatch):
        kem = LacKem(LAC_128)
        pair = kem.keygen(SEED)
        backend = ProcessBackend(workers=1, warm_params=[LAC_128], min_chunk=1)
        try:
            def explode(nbytes):
                raise OSError("no space on /dev/shm")

            monkeypatch.setattr(backend._segments, "acquire", explode)
            message = _messages(1)[0]
            assert _encaps(backend, pair, [message]) == [
                _scalar_encaps(kem, pair, message)
            ]
            assert backend.stats()["shm"]["enabled"] is False
        finally:
            backend.close()


LEAK_SCRIPT = textwrap.dedent(
    """
    import os, sys

    def shm_names():
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

    def main():
        from repro.backend import ProcessBackend
        from repro.errors import WorkerCrashed
        from repro.lac.kem import LacKem
        from repro.lac.params import LAC_128
        from repro.schemes import LAC_SCHEME

        def run(op, items):
            return backend.submit(
                LAC_SCHEME, LAC_128, op, [pair] * len(items), items
            ).result()

        baseline = shm_names()
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(range(64)))
        messages = [bytes([i, 0x5A]) * (LAC_128.message_bytes // 2) for i in range(6)]

        backend = ProcessBackend(workers=2, warm_params=[LAC_128], min_chunk=1)
        backend.warmup([LAC_128])
        results = run("ENCAPS", messages)
        assert run("DECAPS", [ct for ct, _ in results]) == [
            shared for _, shared in results
        ]

        # chaos: kill a worker mid-life, recover, serve again
        assert backend.kill_worker() is True
        try:
            run("ENCAPS", messages)
        except WorkerCrashed:
            pass
        assert run("ENCAPS", messages) == results
        assert backend.stats()["shm"]["enabled"] is True

        backend.close()
        leaked = shm_names() - baseline
        assert not leaked, f"leaked shared memory segments: {sorted(leaked)}"
        print("CLEAN")

    if __name__ == "__main__":
        main()
    """
)


class TestShmHygiene:
    def test_full_lifecycle_leaves_no_segments_and_no_tracker_warnings(
        self, tmp_path
    ):
        """Conformance + kill/restart chaos in a subprocess: /dev/shm is
        clean afterwards and the interpreter exits without any
        resource_tracker complaints (the leak signature of wrong
        ownership handoff)."""
        script = tmp_path / "shm_lifecycle.py"
        script.write_text(LEAK_SCRIPT)
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
