"""The one LAC ciphertext codec of :mod:`repro.lac.pke`.

``pack_ciphertexts``/``unpack_ciphertexts`` are the wire layout — ``u``
one byte per coefficient, then ``v`` compressed to 4 bits and packed
two slots a byte, low nibble first — over ``(B, ciphertext_bytes)``
stacks; ``Ciphertext.to_bytes``/``from_bytes`` are their one-row case.
Random stacks round-trip and match the scalar serialization row by
row, and a ``u`` byte >= q is refused alike wherever a wire ciphertext
enters: ``Ciphertext.from_bytes``, the serving admission check and the
batched DECAPS kernel.
"""

import dataclasses

import numpy as np
import pytest

from repro.lac.params import ALL_PARAMS, LAC_128
from repro.lac.pke import (
    Ciphertext,
    ciphertext_blobs,
    ciphertext_rows,
    pack_ciphertexts,
    unpack_ciphertexts,
)
from repro.schemes import LAC_SCHEME

BATCH = 5


@pytest.fixture(params=ALL_PARAMS, ids=lambda p: p.name)
def params(request):
    return request.param


@pytest.mark.parametrize("seed", range(3))
def test_stacks_round_trip_and_match_the_scalar_rows(params, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, params.q, (BATCH, params.n))
    v = rng.integers(0, 16, (BATCH, params.v_slots), dtype=np.uint8)

    rows = pack_ciphertexts(params, u, v)
    assert rows.shape == (BATCH, params.ciphertext_bytes)
    assert rows.dtype == np.uint8
    # the layout itself: u bytes, then v[2j] | v[2j + 1] << 4
    n = params.n
    assert np.array_equal(rows[:, :n], u)
    assert np.array_equal(rows[:, n:] & 0x0F, v[:, 0::2])
    assert np.array_equal(rows[:, n:] >> 4, v[:, 1::2])

    got_u, got_v = unpack_ciphertexts(params, rows)
    assert np.array_equal(got_u, u)
    assert np.array_equal(got_v, v)

    blobs = ciphertext_blobs(rows)
    assert np.array_equal(ciphertext_rows(params, blobs), rows)
    for row_u, row_v, blob in zip(u, v, blobs, strict=True):
        assert Ciphertext(params, row_u, row_v).to_bytes() == blob
        back = Ciphertext.from_bytes(params, blob)
        assert np.array_equal(back.u, row_u)
        assert np.array_equal(back.v_compressed, row_v)


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_u_byte_at_or_above_q_is_refused_everywhere(params, where):
    kem = LAC_SCHEME.kem_for(params)
    pair = kem.keygen(bytes(range(64)))
    encaps = kem.encaps(pair.public_key, bytes(params.message_bytes))
    blob = encaps.ciphertext.to_bytes()
    index, value = (0, params.q) if where == "first" else (params.n - 1, 255)
    bad = bytearray(blob)
    bad[index] = value
    bad = bytes(bad)

    # the valid blob passes all three doors...
    LAC_SCHEME.check_ciphertext(params, blob)
    Ciphertext.from_bytes(params, blob)
    assert LAC_SCHEME.decaps_many(params, pair, [blob]) == [
        kem.decaps(pair.secret_key, Ciphertext.from_bytes(params, blob))
    ]
    # ...and the tampered one is refused by each, with one message
    with pytest.raises(ValueError, match="coefficient out of range"):
        Ciphertext.from_bytes(params, bad)
    with pytest.raises(ValueError, match="coefficient out of range"):
        LAC_SCHEME.check_ciphertext(params, bad)
    with pytest.raises(ValueError, match="coefficient out of range"):
        LAC_SCHEME.decaps_many(params, pair, [blob, bad])


def test_rows_of_the_wrong_width_are_refused(params):
    with pytest.raises(ValueError, match="ciphertext must be"):
        ciphertext_rows(params, [bytes(params.ciphertext_bytes - 1)])
    with pytest.raises(ValueError, match="ciphertext must be"):
        unpack_ciphertexts(
            params, np.zeros((2, params.ciphertext_bytes + 1), dtype=np.uint8)
        )


def test_experimental_v_bits_stay_in_memory():
    params = dataclasses.replace(LAC_128, name="LAC-128-v3", v_bits=3)
    u = np.zeros((1, params.n), dtype=np.int64)
    v = np.zeros((1, params.v_slots), dtype=np.uint8)
    with pytest.raises(NotImplementedError, match="in-memory only"):
        pack_ciphertexts(params, u, v)
    with pytest.raises(NotImplementedError, match="in-memory only"):
        unpack_ciphertexts(
            params, np.zeros((1, params.ciphertext_bytes), dtype=np.uint8)
        )
