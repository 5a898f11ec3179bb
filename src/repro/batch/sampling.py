"""Vectorized polynomial sampling for the batch engine.

The scalar samplers in :mod:`repro.lac.sampling` are the cycle-model
reference: they read exactly the draws they make, so the operation
counter observes every rejection.  The batch engine replaces the
per-polynomial draws with numpy bulk operations while consuming the
*same* candidate stream, so the sampled polynomials are bit-identical
(a tested invariant).

The key observation that makes the fixed-weight sampler vectorizable:
the scalar loop accepts a candidate index exactly when its slot is
still unoccupied, and slots only ever fill with values that appeared
*earlier* in the candidate stream — so the accepted indices are
precisely the first occurrences of distinct values, in stream order.
One row-wise sort recovers them for the whole batch at once.

The bulk reader over-consumes the PRNG relative to the scalar loop
(it squeezes candidates in blocks).  That is safe here because every
polynomial is drawn from its own *throwaway* domain-separated child
stream (the ``poly`` forks of
:func:`repro.lac.sampling.sample_secret_and_error`) that nothing else
reads afterwards.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.lac.params import LacParams
from repro.lac.sampling import gen_a

#: little-endian 32-bit block counters, precomputed for the squeeze loop
_LE32 = tuple(i.to_bytes(4, "little") for i in range(64))


def _window_blocks(params: LacParams) -> int:
    """SHA-256 blocks squeezed per row before the first-occurrence pass.

    Enough candidates that a shortfall of distinct indices is rare
    (about 2 % of LAC-128 rows, far rarer at LAC-192/256); a short row
    squeezes further blocks of its own stream.
    """
    h = params.h
    return -(-2 * (h + max(h // 2, 32)) // 32)


def sample_secret_rows(
    seeds: list[bytes], params: LacParams, how_many: int
) -> np.ndarray:
    """All secret/error polynomials of a whole batch as one signed matrix.

    Returns a ``(len(seeds) * how_many, n)`` int8 matrix whose row
    ``b * how_many + j`` equals
    ``sample_secret_and_error(seeds[b], ...)[j]`` from the scalar
    reference (a tested invariant).  The per-polynomial work collapses
    into one raw-SHA-256 squeeze loop for every candidate block of the
    batch plus a handful of row-wise numpy passes; no per-polynomial
    Python objects are built.

    The first-occurrence selection runs on a fixed per-row candidate
    window; a row whose window holds fewer than ``h`` distinct indices
    keeps squeezing its own counter stream (blocks ``blocks``,
    ``blocks + 1``, ...) and accepts new indices exactly like the
    scalar loop, so no row is ever hashed twice.
    """
    n, h = params.n, params.h
    rows = len(seeds) * how_many
    blocks = _window_blocks(params)
    per_row = blocks * 16  # uint16 candidates per squeezed row

    labels = [b"poly" + j.to_bytes(2, "little") for j in range(how_many)]
    counters = _LE32[:blocks]
    bases = []
    buf = bytearray()
    for seed in seeds:
        for label in labels:
            base = hashlib.sha256(hashlib.sha256(seed + label).digest())
            bases.append(base)
            for counter in counters:
                hasher = base.copy()
                hasher.update(counter)
                buf += hasher.digest()

    cands = (
        np.frombuffer(bytes(buf), dtype="<u2").reshape(rows, per_row).astype(np.int64)
        & (n - 1)
    )
    # first occurrences of distinct values per row: pack (value, stream
    # position) into one word, sort, keep each value's first position
    combined = (cands << 16) | np.arange(per_row, dtype=np.int64)
    combined.sort(axis=1)
    values = combined >> 16
    keep = np.empty((rows, per_row), dtype=bool)
    keep[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=keep[:, 1:])
    positions = np.where(keep, combined & 0xFFFF, 1 << 30)
    positions.sort(axis=1)
    selected = positions[:, :h]

    taken = np.take_along_axis(cands, np.minimum(selected, per_row - 1), axis=1)
    for r in np.flatnonzero(selected[:, -1] >= (1 << 30)):  # < h distinct
        distinct = np.count_nonzero(selected[r] < (1 << 30))
        taken[r] = _top_up(bases[r], blocks, taken[r, :distinct], n, h)

    out = np.zeros((rows, n), dtype=np.int8)
    row_index = np.arange(rows)[:, None]
    out[row_index, taken[:, : h // 2]] = 1
    out[row_index, taken[:, h // 2 :]] = -1
    return out


def _top_up(
    base: hashlib._Hash, block: int, accepted: np.ndarray, n: int, h: int
) -> list[int]:
    """Finish a short row: squeeze its stream from block ``block`` on
    and accept each index not seen before, until ``h`` are accepted."""
    taken = [int(v) for v in accepted]
    seen = set(taken)
    while True:
        hasher = base.copy()
        hasher.update(block.to_bytes(4, "little"))
        block += 1
        for raw in np.frombuffer(hasher.digest(), dtype="<u2"):
            index = int(raw) & (n - 1)
            if index not in seen:
                seen.add(index)
                taken.append(index)
                if len(taken) == h:
                    return taken


def gen_a_vec(seed: bytes, params: LacParams) -> np.ndarray:
    """GenA for the batch engine: :func:`repro.lac.sampling.gen_a`, uncounted.

    The scalar GenA already filters each chunk it reads with numpy, and
    it never over-consumes the stream, so the batch engine runs it as is.
    """
    return gen_a(seed, params)
