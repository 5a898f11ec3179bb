"""Seeded request streams: key popularity, op mix, arrival gaps.

A stream is generated from ``--seed`` before the timed window opens;
the service under test sees only the generated requests.  Only
``random.Random`` (whose ``random()`` stream is stable across Python
versions) feeds the draws, so a seed names one byte-identical stream —
:func:`stream_digest` is what the reports and the self-tests compare.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

#: One ENCAPS/KEYGEN reply in this many is re-derived with the scalar KEM.
VERIFY_ONE_IN = 64


@dataclass(frozen=True)
class Request:
    """One generated request.

    ``key`` indexes the workload's hosted keys; ``item`` indexes the
    key's ciphertext pool (DECAPS) and is unused otherwise; ``blob`` is
    the ENCAPS message or KEYGEN seed; ``at`` is the scheduled send
    time in seconds from the stream's start (open loop only, else 0).
    """

    op: str
    key: int
    item: int
    blob: bytes
    at: float
    verify: bool


def cumulative(weights: Sequence[float]) -> list[float]:
    """Normalised running sums of ``weights`` (last entry exactly 1.0)."""
    total = float(sum(weights))
    sums = list(itertools.accumulate(w / total for w in weights))
    sums[-1] = 1.0
    return sums


def zipf_weights(n: int, s: float) -> list[float]:
    """Zipf popularity over ranks ``1..n``: weight ``1 / rank**s``."""
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


def draw(cdf: Sequence[float], u: float) -> int:
    """Index whose cumulative bucket holds ``u`` in ``[0, 1)``."""
    return bisect.bisect_right(cdf, u)


def make_stream(
    seed: int,
    label: str,
    count: int,
    *,
    keys: int,
    zipf_s: float | None,
    mix: Mapping[str, float],
    pool: int,
    blob_bytes: Mapping[str, int],
    horizon_s: float | None = None,
) -> list[Request]:
    """``count`` requests drawn from ``(seed, label)``.

    ``zipf_s`` of ``None`` picks keys uniformly.  ``horizon_s`` of
    ``None`` is a closed loop (no schedule); otherwise the requests are
    Poisson arrivals over ``[0, horizon_s)`` conditioned on their count
    (sorted uniform times), so the offered rate is the same for every
    seed and only the gaps vary.
    """
    rng = random.Random(f"ledger/{label}/{seed}")
    times = (
        sorted(rng.uniform(0.0, horizon_s) for _ in range(count))
        if horizon_s is not None
        else [0.0] * count
    )
    key_cdf = cumulative(zipf_weights(keys, zipf_s) if zipf_s else [1.0] * keys)
    ops = sorted(mix)
    op_cdf = cumulative([mix[op] for op in ops])
    out: list[Request] = []
    for at in times:
        op = ops[draw(op_cdf, rng.random())]
        key = draw(key_cdf, rng.random())
        item = rng.randrange(pool) if pool else 0
        blob = rng.randbytes(blob_bytes.get(op, 0))
        verify = rng.randrange(VERIFY_ONE_IN) == 0
        out.append(Request(op, key, item, blob, at, verify))
    return out


def stream_digest(stream: Sequence[Request]) -> str:
    """Hex digest over every field of every request, in order."""
    h = hashlib.blake2b(digest_size=16)
    for r in stream:
        h.update(
            f"{r.op}|{r.key}|{r.item}|{r.blob.hex()}|{r.at!r}|{int(r.verify)}\n".encode()
        )
    return h.hexdigest()
