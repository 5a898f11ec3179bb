"""Polynomial generation: GenA and fixed-weight ternary sampling.

Both generators expand SHA-256 output (Sec. III-B), which is why the
paper accelerates SHA256 in hardware: GenA and Sample-poly are two of
the four bottleneck kernels of Table II.

* :func:`gen_a` models *GenA*: rejection-samples uniform Z_q
  coefficients from the seed-expanded byte stream (one byte per
  candidate, accepted when < q; acceptance rate 251/256).
* :func:`sample_ternary_fixed_weight` models *Sample poly*: the
  round-2 fixed-weight distribution.  Exactly h/2 coefficients are +1
  and h/2 are -1, placed by a Fisher-Yates shuffle whose swap indices
  come from the PRNG.  The shuffle structure (n-1 swaps, each with a
  rejection-sampled index) is input-independent, matching the
  submission's constant-time sampler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hashes.prng import Sha256Prng
from repro.lac.params import LacParams
from repro.metrics import NullCounter, OpCounter, ensure_counter
from repro.ring.ternary import TernaryPoly

if TYPE_CHECKING:
    from repro.hashes.keccak import ShakePrng


def gen_a(
    seed: bytes,
    params: LacParams,
    counter: OpCounter | None = None,
    prng: Sha256Prng | ShakePrng | None = None,
) -> np.ndarray:
    """Expand ``seed`` into the public polynomial a (uniform over Z_q^n).

    Rejection sampling on single bytes keeps the distribution exactly
    uniform; the expected stream consumption is n * 256/251 bytes.
    ``prng`` overrides the expander (any object with ``read``) — used
    by the future-work ablation that swaps SHA-256 for SHAKE-128.
    Each chunk read is filtered in one numpy pass (its counts are per
    chunk already); :func:`_gen_a_loop` is the golden per-byte loop.
    """
    counter = ensure_counter(counter)
    n, q = params.n, params.q
    with counter.phase("gen_a"):
        counter.count("call")
        if prng is None:
            prng = Sha256Prng(seed, counter=counter)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            chunk = prng.read(max(n - filled, 32))
            counter.count("loop", len(chunk))
            counter.count("load", len(chunk))
            counter.count("branch", len(chunk))
            counter.count("store", len(chunk))
            values = np.frombuffer(chunk, dtype=np.uint8)
            accepted = values[values < q][: n - filled]
            out[filled : filled + len(accepted)] = accepted
            filled += len(accepted)
    return out


def _gen_a_loop(
    seed: bytes,
    params: LacParams,
    counter: OpCounter,
    prng: Sha256Prng | ShakePrng | None = None,
) -> np.ndarray:
    """The golden model of :func:`gen_a`: one byte at a time."""
    n, q = params.n, params.q
    with counter.phase("gen_a"):
        counter.count("call")
        if prng is None:
            prng = Sha256Prng(seed, counter=counter)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            chunk = prng.read(max(n - filled, 32))
            counter.count("loop", len(chunk))
            counter.count("load", len(chunk))
            counter.count("branch", len(chunk))
            counter.count("store", len(chunk))
            for byte in chunk:
                if byte < q and filled < n:
                    out[filled] = byte
                    filled += 1
    return out


def sample_ternary_fixed_weight(
    prng: Sha256Prng,
    params: LacParams,
    counter: OpCounter | None = None,
) -> TernaryPoly:
    """Sample a ternary polynomial with exactly h/2 ones and h/2 minus-ones.

    The round-2 fixed-weight sampler draws uniform positions and
    rejects collisions: each nonzero coefficient consumes 16 PRNG bits
    (``LacParams`` requires n to be a power of two, so masking is
    unbiased), retrying until an unoccupied slot is hit.  The expected
    draw count is n * ln(n / (n - h)), which reproduces the paper's
    Sample-poly ordering across security levels (LAC-192 cheaper than
    LAC-128 despite the larger ring; LAC-256 the most expensive).

    A counted call charges the data-dependent draw count per draw, but
    draws in rounds: with ``h - accepted`` slots still to fill, the
    per-draw loop is certain to make at least that many more draws (each
    accepts at most one), so a round reads exactly those and accepts the
    first occurrence of every index not yet occupied — what the loop
    accepts, with the same counts and the same stream consumption.
    :func:`_sample_fixed_weight_loop` is the golden one-draw-at-a-time
    loop, and an uncounted call runs it: uncounted, this is the scalar
    reference that the batch sampler (:mod:`repro.batch.sampling`)
    mirrors and the batched-ENCAPS speedup floor is timed against.
    """
    counter = ensure_counter(counter)
    if isinstance(counter, NullCounter):
        return _sample_fixed_weight_loop(prng, params, counter)
    n, h = params.n, params.h
    coeffs = np.zeros(n, dtype=np.int8)
    accepted = 0

    with counter.phase("sample_poly"):
        counter.count("call")
        while accepted < h:
            draws = h - accepted
            counter.count("loop", draws)
            counter.count("alu", 2 * draws)  # mask + occupancy test setup
            counter.count("load", draws)
            counter.count("branch", draws)
            indices = np.frombuffer(prng.read(2 * draws), dtype="<u2") & (n - 1)
            # a draw is accepted when its slot was free before the round
            # and no earlier draw of the round named it
            order = np.arange(draws)
            first = np.full(n, draws)
            np.minimum.at(first, indices, order)
            fresh = indices[(first[indices] == order) & (coeffs[indices] == 0)]
            ones = max(h // 2 - accepted, 0)  # the first h/2 accepted are +1
            coeffs[fresh[:ones]] = 1
            coeffs[fresh[ones:]] = -1
            counter.count("store", len(fresh))
            accepted += len(fresh)
    return TernaryPoly(coeffs)


def _sample_fixed_weight_loop(
    prng: Sha256Prng, params: LacParams, counter: OpCounter
) -> TernaryPoly:
    """The golden model of :func:`sample_ternary_fixed_weight`: one draw at a time."""
    n, h = params.n, params.h
    coeffs = np.zeros(n, dtype=np.int8)

    with counter.phase("sample_poly"):
        counter.count("call")
        for k in range(h):
            value = 1 if k < h // 2 else -1
            while True:
                counter.count("loop")
                counter.count("alu", 2)   # mask + occupancy test setup
                counter.count("load")
                counter.count("branch")
                index = int.from_bytes(prng.read(2), "little") & (n - 1)
                if coeffs[index] == 0:
                    break
            coeffs[index] = value
            counter.count("store")
    return TernaryPoly(coeffs)


def sample_secret_and_error(
    seed: bytes,
    params: LacParams,
    how_many: int,
    counter: OpCounter | None = None,
) -> list[TernaryPoly]:
    """Derive ``how_many`` independent fixed-weight polynomials from a seed.

    Each polynomial uses a domain-separated child stream so the secret
    and error polynomials of one operation are independent.
    """
    counter = ensure_counter(counter)
    root = Sha256Prng(seed, counter=counter)
    polys = []
    for index in range(how_many):
        child = root.fork(b"poly" + index.to_bytes(2, "little"))
        polys.append(sample_ternary_fixed_weight(child, params, counter))
    return polys
