"""Known-answer regression tests.

These vectors were generated once from the implementation and frozen;
they guard every deterministic pipeline (seed expansion, sampling,
encoding, arithmetic, serialization) against silent behavioural drift.
A failure here means the *outputs* changed, not merely the internals —
which would invalidate recorded experiment numbers.
"""

import hashlib

import numpy as np
import pytest

from repro.bch import BCHEncoder, LAC_BCH_128_256, LAC_BCH_192
from repro.lac import ALL_PARAMS, LacKem
from repro.newhope import NEWHOPE_512, NEWHOPE_1024, NewHopeCpaKem
from repro.serve import KemClient, ServiceConfig, ThreadedService

SEED = bytes(range(64))
MESSAGE = bytes(range(32))

#: scheme -> (sha256(pk), sha256(sk), sha256(ct), shared_secret)
LAC_VECTORS = {
    "LAC-128": (
        "fedbba391357ba4930e01b9bbaf39933b95501e5052dd94b2a3583e7e14b4403",
        "473e850e6f853ffeb1c32bc9ba50be3b05d864b061d40af2ff64acde89dcccfa",
        "528aa646e159d82061cbcb9c610ec0c79ef0bdf0fe012fab60777e8a9ab3fa1b",
        "7380bf05d14ad10198673274599fcb4d85c39e19a026d4f9a2f50866eac4e6fc",
    ),
    "LAC-192": (
        "87284a6ac90bf08f6d02dfaf2520627e6ed8c8b6826e62a7056318b42cddb9ec",
        "cd63640ce5753d2870b103e58b5c0fc9a314b9930306b5f93486172215c351ca",
        "342a3be463df82337d6cf6afc01c91199c3145465285652c8566265be6311243",
        "e8cef10478833b616ac60b5475c403382e4d5b884e340b81ef00b59fb98f4eb9",
    ),
    "LAC-256": (
        "d5b22ed9495fb6fed321c24a0877e225ae033add7926eff7a80e40686ea9113d",
        "bfdf2006abc1e3c4bdfbde117d97da114d7817f25bff9654342d581fba22f340",
        "e9cbd7590bd1b2ac0472e6c262d54c46cc7ea221fad6dec97ba2c635a5a4317a",
        "a507e318dc2b91d213e78b231fb35b2ceb64397b148cdde036da5b1e3204eaec",
    ),
}

#: scheme -> (sha256(b_hat), sha256(u_hat), shared_secret)
NEWHOPE_VECTORS = {
    "NewHope512": (
        "e347719be162e2f3131c36c052356593673f2d456cc3fe34f16c296951a5a96d",
        "c7e291e5004d7095b36fcbaf23d55d3ea27c69b0ed22ffa438123999057501ee",
        "defd4118317d0c606405498527afbc83c2a1295991b74f6b625171575d074c0a",
    ),
    "NewHope1024": (
        "18bd74192fa46427b19ef851e22d0fc7cbd264a63971aa8c748ccdb819edae0e",
        "c4d12b34ebcd333f4003c3690492d2484f5456591a0ba697a429d1e1778c35d4",
        "defd4118317d0c606405498527afbc83c2a1295991b74f6b625171575d074c0a",
    ),
}

#: scheme -> (sha256(wire pk), sha256(wire ct), shared_secret) for the
#: *CCA* KEM in the serving stack's wire serialization (see
#: ``repro.schemes.newhope`` for the format)
NEWHOPE_CCA_VECTORS = {
    "NewHope512": (
        "fb5b1996075547f9261ac960a85c144709d58f6c52b452c2851651809c37b458",
        "7c6227c320eeda7a706247020f873969eb98a556d2c050e311d3eb288a457ab3",
        "6c97817e049e7171d0fd7b58e2f11b0c3fb54b9973a274567a4faf35bd426ce9",
    ),
    "NewHope1024": (
        "cdfe5d6507b5eea2354255241e07d0409ff6e543c4e02bac603a129f217c9a87",
        "fa705ef314a9e587b1f2576b2045763fca556693587a6ec17bbe776d82d5fd70",
        "54705ff21f783226db5ec609dab3472a9a6936b1bf775b16a9d5fc94618a72c9",
    ),
}

#: BCH generator polynomial bitmasks (hex) — mathematically determined
#: by (GF(2^9), p(x) = 1 + x^4 + x^9, t), so these can never change.
GENERATOR_MASKS = {
    "t16": "12b6bd0545db34c1e01d5296e58c8ed2701ad",
    "t8": "1b8ba069b8b1ffe26e5",
}

CODEWORD_DIGESTS = {
    "t16": "bd8315d65f7a8decf4f2590ba17b898278245f7e8cd83c92e7f47fceca8fd15c",
    "t8": "2e8ca84c1c20d62a31be19e372f81d1a5e062755a2ec849c5ebc086ca2b2c207",
}


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_lac_kat(params):
    pk_digest, sk_digest, ct_digest, shared_hex = LAC_VECTORS[params.name]
    kem = LacKem(params)
    pair = kem.keygen(seed=SEED)
    enc = kem.encaps(pair.public_key, message=MESSAGE)
    assert hashlib.sha256(pair.public_key.to_bytes()).hexdigest() == pk_digest
    assert hashlib.sha256(pair.secret_key.sk.to_bytes()).hexdigest() == sk_digest
    assert hashlib.sha256(enc.ciphertext.to_bytes()).hexdigest() == ct_digest
    assert enc.shared_secret.hex() == shared_hex
    assert kem.decaps(pair.secret_key, enc.ciphertext) == enc.shared_secret


@pytest.mark.parametrize("params", [NEWHOPE_512, NEWHOPE_1024], ids=str)
def test_newhope_kat(params):
    b_digest, u_digest, shared_hex = NEWHOPE_VECTORS[params.name]
    kem = NewHopeCpaKem(params)
    keys = kem.keygen(SEED[:32])
    ct, shared = kem.encaps(keys, message=MESSAGE)
    assert hashlib.sha256(keys.b_hat.astype("<u2").tobytes()).hexdigest() == b_digest
    assert hashlib.sha256(ct.u_hat.astype("<u2").tobytes()).hexdigest() == u_digest
    assert shared.hex() == shared_hex


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_lac_kat_through_the_service(params):
    """The served path (protocol + scheduler + batch kernels) must
    reproduce the same frozen vectors bit-for-bit as the scalar KEM."""
    pk_digest, _sk_digest, ct_digest, shared_hex = LAC_VECTORS[params.name]
    with ThreadedService(ServiceConfig(max_batch=4)) as svc:
        client = KemClient(svc.connect())
        key_id, pk = client.keygen(params, SEED)
        assert hashlib.sha256(pk.to_bytes()).hexdigest() == pk_digest
        ct_bytes, shared = client.encaps(key_id, MESSAGE)
        assert hashlib.sha256(ct_bytes).hexdigest() == ct_digest
        assert shared.hex() == shared_hex
        assert client.decaps(key_id, ct_bytes).hex() == shared_hex
        client.close()


@pytest.mark.parametrize("params", [NEWHOPE_512, NEWHOPE_1024], ids=str)
def test_newhope_kat_through_the_service(params):
    """The served NewHope path (scheme registry + the one
    ``KemBackend.submit``) must reproduce the frozen CCA vectors
    bit-for-bit."""
    pk_digest, ct_digest, shared_hex = NEWHOPE_CCA_VECTORS[params.name]
    with ThreadedService(ServiceConfig(max_batch=4)) as svc:
        client = KemClient(svc.connect())
        key_id, pk_bytes = client.keygen(params, SEED)
        assert hashlib.sha256(pk_bytes).hexdigest() == pk_digest
        ct_bytes, shared = client.encaps(key_id, MESSAGE)
        assert hashlib.sha256(ct_bytes).hexdigest() == ct_digest
        assert shared.hex() == shared_hex
        assert client.decaps(key_id, ct_bytes).hex() == shared_hex
        client.close()


@pytest.mark.parametrize(
    "code,key", [(LAC_BCH_128_256, "t16"), (LAC_BCH_192, "t8")], ids=["t16", "t8"]
)
def test_bch_generator_and_codeword(code, key):
    assert f"{code.generator.mask:x}" == GENERATOR_MASKS[key]
    message = np.unpackbits(np.frombuffer(MESSAGE, np.uint8), bitorder="little")
    codeword = BCHEncoder(code).encode(message)
    assert hashlib.sha256(codeword.tobytes()).hexdigest() == CODEWORD_DIGESTS[key]


def test_shared_secret_derivation_is_scheme_independent_check():
    """Two different LAC levels never derive the same session key."""
    secrets = {LAC_VECTORS[name][3] for name in LAC_VECTORS}
    assert len(secrets) == 3
