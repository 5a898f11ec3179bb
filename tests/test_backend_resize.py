"""Tests for the backend worker-pool resize contract.

``KemBackend.workers`` / ``resize()`` are the autoscaler's levers
(:mod:`repro.serve.slo`): an owned pool reports its size and can be
retargeted mid-traffic without losing or corrupting in-flight batches;
everything without a privately owned pool — the inline backend, a
borrowed executor, the process-wide shared default — reports ``None``
and declines, which opts it out of autoscaling entirely.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import (
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    default_thread_backend,
)
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.schemes import LAC_SCHEME

SEED = bytes(range(64))


@pytest.fixture(scope="module")
def scalar():
    kem = LacKem(LAC_128)
    pair = kem.keygen(SEED)
    return kem, pair


def _messages(count):
    return [
        bytes([i & 0xFF, 0xA5]) * (LAC_128.message_bytes // 2)
        for i in range(count)
    ]


def _encaps(backend, pair, messages):
    return backend.submit(
        LAC_SCHEME, LAC_128, "ENCAPS", [pair] * len(messages), messages
    )


def _assert_parity(results, messages, scalar):
    kem, pair = scalar
    assert len(results) == len(messages)
    for message, (ct_bytes, shared) in zip(messages, results):
        reference = kem.encaps(pair.public_key, message)
        assert ct_bytes == reference.ciphertext.to_bytes()
        assert shared == reference.shared_secret


class TestNonResizableBackends:
    def test_inline_backend_opts_out(self):
        backend = InlineBackend()
        assert backend.workers is None
        assert backend.resize(2) is False
        backend.close()

    def test_borrowed_executor_declines(self, scalar):
        _, pair = scalar
        with ThreadPoolExecutor(max_workers=2) as pool:
            backend = ThreadBackend(executor=pool)
            assert backend.workers is None
            assert backend.resize(4) is False
            # the borrowed pool is untouched and still serves batches
            messages = _messages(2)
            results = _encaps(backend, pair, messages).result()
            _assert_parity(results, messages, scalar)
            backend.close()

    def test_shared_default_pool_declines(self):
        backend = default_thread_backend()
        assert backend.workers is None
        assert backend.resize(4) is False

    def test_resize_below_one_raises_everywhere(self):
        for backend in (InlineBackend(), ThreadBackend(workers=1)):
            with pytest.raises(ValueError):
                backend.resize(0)
            backend.close()


class TestThreadBackendResize:
    def test_owned_pool_reports_and_retargets(self):
        backend = ThreadBackend(workers=2)
        assert backend.workers == 2
        assert backend.resize(4) is True
        assert backend.workers == backend.slots == 4
        assert backend.resize(4) is True  # no-op resize still succeeds
        assert backend.workers == 4
        backend.close()

    def test_resize_mid_traffic_keeps_results_correct(self, scalar):
        """Batches straddling the pool swap all complete bit-identical."""
        _, pair = scalar
        backend = ThreadBackend(workers=2)
        try:
            messages = _messages(4)
            before = [
                _encaps(backend, pair, messages)
                for _ in range(3)
            ]
            assert backend.resize(1) is True
            assert backend.resize(3) is True
            after = [
                _encaps(backend, pair, messages)
                for _ in range(3)
            ]
            for future in before + after:
                _assert_parity(future.result(), messages, scalar)
        finally:
            backend.close()

    def test_resize_after_close_declines(self):
        backend = ThreadBackend(workers=2)
        backend.close()
        assert backend.resize(4) is False


class TestProcessBackendResize:
    def test_retarget_and_serve(self, scalar):
        _, pair = scalar
        backend = ProcessBackend(
            workers=1, warm_params=[LAC_128], min_chunk=1
        )
        try:
            assert backend.workers == 1
            messages = _messages(2)
            results = _encaps(backend, pair, messages).result()
            _assert_parity(results, messages, scalar)

            assert backend.resize(2) is True
            assert backend.workers == backend.slots == 2
            # the replacement pool spawns lazily on the next batch and
            # re-ships the key (the ship-once table was reset)
            results = _encaps(backend, pair, messages).result()
            _assert_parity(results, messages, scalar)
        finally:
            backend.close()

    def test_resize_after_close_declines(self):
        backend = ProcessBackend(workers=1)
        backend.close()
        assert backend.resize(2) is False
