"""Batched fast-path execution of the LAC KEM.

The cycle-model reference code in :mod:`repro.lac` processes one
operation at a time; this package stacks whole batches of operations
into 2-D numpy arrays — batched negacyclic multiplication, matrix BCH
encoding, vectorized sampling — and produces results bit-identical to
looping the scalar API.  See ``docs/PERFORMANCE.md`` for the
architecture and measured speedups.
"""

from repro.batch.encode import bch_encode_many, encode_many, parity_matrix
from repro.batch.kem import (
    decaps_many,
    encaps_many,
    key_fingerprints,
    keygen_many,
    warm_cache,
)
from repro.batch.sampling import gen_a_vec, sample_secret_rows

__all__ = [
    "bch_encode_many",
    "encode_many",
    "parity_matrix",
    "encaps_many",
    "decaps_many",
    "keygen_many",
    "key_fingerprints",
    "warm_cache",
    "gen_a_vec",
    "sample_secret_rows",
]
