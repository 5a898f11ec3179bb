"""Speedup floors: what the batch engine and the service must buy.

Each kernel floor is the median over back-to-back pairs of a scalar
timing and the best of a few batch timings taken right after it, and
the service floor a ratio of best-of-N timings, all in the same process,
so each checks the code, not the host's speed (the ledger, ``python -m
benchmarks.ledger``, measures absolute throughput):

* **kernels** — ``LacKem.encaps_many`` at B = 64 is at least 10x the
  scalar ``encaps`` loop over the same messages, for every parameter
  set, the vectorised one-word constant-time BCH decode is at least
  5x the golden scalar loops (``ConstantTimeBCHDecoder._decode_scalar``),
  and one served key generation (``LacScheme.keygen``, the batch
  kernel at B = 1) is at least 3x the scalar ``LacKem.keygen``;
* **service** — LAC-256 served to 64 pipelined in-process clients is at
  least 5x sequential scalar ``LacKem.encaps``, in batches of at least
  32 by the service's own count: micro-batching keeps the batch kernels
  fed although every caller sends one operation at a time.

Bit-identity is asserted before anything is timed.
"""

import asyncio
import statistics
import time

import numpy as np
import pytest

from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_256
from repro.schemes import LAC_SCHEME
from repro.serve import AsyncKemClient, KemService

pytestmark = pytest.mark.timing

BATCH = 64
MIN_ENCAPS_SPEEDUP = 10.0
MIN_BCH_SPEEDUP = 5.0
MIN_SERVICE_SPEEDUP = 5.0
MIN_KEYGEN_SPEEDUP = 3.0

#: concurrent pipelined callers, one encaps in flight each (= the
#: default ``max_batch``, so a full wave is one batch)
CLIENTS = 64


def _best_of(fn, repeats):
    """Best-of-``repeats`` wall clock of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _median_ratio(slow, fast, rounds, fast_repeats):
    """Median over ``rounds`` of one ``slow()`` time over the best of
    ``fast_repeats`` ``fast()`` times taken right after it.

    Timing each pair back to back cancels the host's drift in speed,
    and the median drops the rounds a burst of noise hit.
    """
    return statistics.median(
        _best_of(slow, 1) / _best_of(fast, fast_repeats) for _ in range(rounds)
    )


def _public_key(params):
    return LacKem(params).keygen(b"\x2a" * (params.seed_bytes + 32)).public_key


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_batched_encaps_is_ten_times_the_scalar_loop(params):
    kem = LacKem(params)
    pk = _public_key(params)
    messages = [bytes([i]) * params.message_bytes for i in range(BATCH)]
    scalar = [kem.encaps(pk, m) for m in messages]
    batched = kem.encaps_many(pk, messages)
    assert [(r.ciphertext.to_bytes(), r.shared_secret) for r in batched] == [
        (r.ciphertext.to_bytes(), r.shared_secret) for r in scalar
    ]
    speedup = _median_ratio(
        lambda: [kem.encaps(pk, m) for m in messages],
        lambda: kem.encaps_many(pk, messages),
        rounds=5,
        fast_repeats=3,
    )
    assert speedup >= MIN_ENCAPS_SPEEDUP


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_vectorised_bch_decode_is_five_times_the_scalar_engine(params):
    code = params.bch
    rng = np.random.default_rng(1234)
    word = BCHEncoder(code).encode(rng.integers(0, 2, code.k, dtype=np.uint8))
    word = word.copy()
    word[rng.choice(code.n, size=code.t, replace=False)] ^= 1  # full budget
    decoder = ConstantTimeBCHDecoder(code)
    assert np.array_equal(
        decoder.decode(word).codeword, decoder._decode_scalar(word).codeword
    )
    speedup = _median_ratio(
        lambda: decoder._decode_scalar(word),
        lambda: decoder.decode(word),
        rounds=5,
        fast_repeats=3,
    )
    assert speedup >= MIN_BCH_SPEEDUP


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_vectorised_keygen_is_three_times_the_scalar_keygen(params):
    kem = LacKem(params)
    seed = b"\x5c" * (params.seed_bytes + 32)
    scalar = kem.keygen(seed)
    served = LAC_SCHEME.keygen(params, seed)
    assert served.public_key.to_bytes() == scalar.public_key.to_bytes()
    assert served.secret_key.to_bytes() == scalar.secret_key.to_bytes()
    speedup = _median_ratio(
        lambda: kem.keygen(seed),
        lambda: LAC_SCHEME.keygen(params, seed),
        rounds=9,
        fast_repeats=3,
    )
    assert speedup >= MIN_KEYGEN_SPEEDUP


def test_served_lac256_is_five_times_sequential_scalar_encaps():
    kem = LacKem(LAC_256)
    pk = _public_key(LAC_256)
    kem.encaps(pk)  # warm tables outside the timed window
    sequential_ops = 32
    sequential_per_s = sequential_ops / _best_of(
        lambda: [kem.encaps(pk) for _ in range(sequential_ops)], 3
    )
    requests, waves = 8, 3

    async def main():
        service = await KemService().start()
        key_id = service.add_keypair(LAC_256)
        pool = []
        for _ in range(CLIENTS):
            client = AsyncKemClient(*(await service.connect()))
            client.register_key(key_id, LAC_256)
            pool.append(client)

        async def caller(client):
            for _ in range(requests):
                await client.encaps(key_id)

        # one untimed wave: pool threads and transform cache warm up
        await asyncio.gather(*[c.encaps(key_id) for c in pool])
        best = float("inf")
        for _ in range(waves):
            start = time.perf_counter()
            await asyncio.gather(*[caller(c) for c in pool])
            best = min(best, time.perf_counter() - start)
        info = await pool[0].info()
        for client in pool:
            await client.aclose()
        await service.shutdown()
        return CLIENTS * requests / best, info["mean_batch_size"]

    served_per_s, mean_batch = asyncio.run(asyncio.wait_for(main(), 120.0))
    assert served_per_s / sequential_per_s >= MIN_SERVICE_SPEEDUP
    # the batch-1 fast path alone is ~9x the scalar loop on a 2-vCPU
    # x86-64 host, so the floor cannot tell whether requests coalesce;
    # the server's own INFO can
    assert mean_batch >= CLIENTS / 2
