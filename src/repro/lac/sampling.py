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
from repro.metrics import OpCounter, ensure_counter
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
    """
    counter = ensure_counter(counter)
    with counter.phase("gen_a"):
        counter.count("call")
        if prng is None:
            prng = Sha256Prng(seed, counter=counter)
        out = np.empty(params.n, dtype=np.int64)
        filled = 0
        while filled < params.n:
            chunk = prng.read(max(params.n - filled, 32))
            counter.count("loop", len(chunk))
            counter.count("load", len(chunk))
            counter.count("branch", len(chunk))
            counter.count("store", len(chunk))
            for byte in chunk:
                if byte < params.q and filled < params.n:
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
    """
    counter = ensure_counter(counter)
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
