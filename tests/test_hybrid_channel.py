"""One secure channel, constant-time on both sides.

:class:`repro.lac.hybrid.HybridChannel` is the one implementation of
the KEM-DEM channel: :class:`LacHybrid` runs it per message, the
service's ``SEAL``/``OPEN`` ops per session.  The tag compare is the
repo's Table-I concern in miniature — it must not be a data-dependent
``!=`` on either side.
"""

import ast
import hmac
from pathlib import Path

import pytest

from repro.lac import LAC_128
from repro.lac.hybrid import (
    HybridChannel,
    HybridCiphertext,
    HybridDecryptionError,
    LacHybrid,
)
from repro.serve import KemClient, ServiceConfig, ThreadedService

SEED = bytes(range(64))
NONCE = bytes(range(12))


@pytest.fixture
def compare_digest_calls(monkeypatch):
    """Spy on ``hmac.compare_digest`` (still the real compare)."""
    calls = []
    real = hmac.compare_digest

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(hmac, "compare_digest", spy)
    return calls


def test_channel_round_trip_and_tamper_rejection():
    channel = HybridChannel(b"s" * 32, b"kem-ct")
    body, tag = channel.seal(NONCE, b"attack at dawn")
    assert channel.open(NONCE, body, tag) == b"attack at dawn"
    for forged in (
        (NONCE, body, bytes(32)),
        (NONCE, body[:-1] + b"\x00", tag),
        (bytes(12), body, tag),
    ):
        with pytest.raises(HybridDecryptionError):
            channel.open(*forged)
    # the tag binds the KEM ciphertext the channel was derived with
    with pytest.raises(HybridDecryptionError):
        HybridChannel(b"s" * 32, b"other-ct").open(NONCE, body, tag)


def test_lac_hybrid_open_compares_tags_in_constant_time(compare_digest_calls):
    hybrid = LacHybrid(LAC_128)
    pair = hybrid.kem.keygen(seed=SEED)
    sealed = hybrid.seal(pair.public_key, b"integrity matters")
    assert hybrid.open(pair.secret_key, sealed) == b"integrity matters"
    assert [b for _, b in compare_digest_calls] == [sealed.tag]
    forged = HybridCiphertext(
        sealed.params, sealed.kem_ciphertext, sealed.nonce, sealed.body, bytes(32)
    )
    with pytest.raises(HybridDecryptionError):
        hybrid.open(pair.secret_key, forged)
    assert len(compare_digest_calls) == 2


def test_served_open_runs_the_same_compare(compare_digest_calls):
    with ThreadedService(ServiceConfig(max_batch=1)) as svc:
        client = KemClient(svc.connect())
        key_id, _pk = client.keygen(LAC_128, SEED)
        sid, _ct, _shared = client.open_session(key_id)
        sealed = client.seal(sid, NONCE, b"payload")
        assert client.open_sealed(sid, NONCE, sealed) == b"payload"
        client.close()
    assert [b for _, b in compare_digest_calls] == [sealed[-32:]]


def test_server_imports_no_private_name_from_the_lac_package():
    source = Path(__file__).parent.parent / "src/repro/serve/server.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.lac"
        ):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"server.py:{node.lineno} imports {private}"
