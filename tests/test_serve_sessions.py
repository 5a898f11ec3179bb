"""The stateful secure-channel session workload (SESSION/SEAL/OPEN).

SESSION_OPEN performs one KEM encapsulation under a hosted key and
derives channel keys exactly as :class:`repro.lac.hybrid.LacHybrid`
does, so the transcript ``kem_ct || nonce || body || tag`` of a served
SEAL must open under the *offline* hybrid construction bit-for-bit —
that parity is the contract these tests pin, alongside the session
lifecycle (close, unknown ids), AEAD rejection of tampering, tenant
scoping, and sessions over a non-LAC scheme.
"""

import pytest

from repro.errors import BadRequest, KeyNotFound, ServiceBusy
from repro.lac.hybrid import HybridCiphertext, LacHybrid
from repro.lac.kem import LacKem
from repro.lac.params import LAC_128
from repro.newhope.params import NEWHOPE_512
from repro.schemes import NEWHOPE_SCHEME
from repro.serve import (
    KemClient,
    RetryPolicy,
    ServiceConfig,
    TenantQuota,
    ThreadedService,
)

SEED = bytes(range(64))
MESSAGE = bytes(range(32))
NONCE = bytes(range(12))


@pytest.fixture(scope="module")
def served():
    with ThreadedService(ServiceConfig(max_batch=4)) as svc:
        client = KemClient(svc.connect())
        yield svc, client
        client.close()


class TestLacSessionParity:
    def test_open_performs_one_deterministic_encaps(self, served):
        _, client = served
        key_id, pk = client.keygen(LAC_128, SEED)
        sid, kem_ct, shared = client.open_session(key_id, MESSAGE)
        reference = LacKem(LAC_128).encaps(pk, message=MESSAGE)
        assert kem_ct == reference.ciphertext.to_bytes()
        assert shared == reference.shared_secret
        client.close_session(sid)

    def test_served_transcript_opens_under_offline_hybrid(self, served):
        """``kem_ct || nonce || body || tag`` is a valid LacHybrid wire
        ciphertext — the served channel is the offline construction."""
        _, client = served
        kem = LacKem(LAC_128)
        pair = kem.keygen(SEED)
        key_id, _pk = client.keygen(LAC_128, SEED)
        sid, kem_ct, _shared = client.open_session(key_id, MESSAGE)
        plaintext = b"the paper's accelerated KEM, now with sessions"
        sealed = client.seal(sid, NONCE, plaintext)
        transcript = kem_ct + NONCE + sealed
        offline = LacHybrid(LAC_128)
        assert (
            offline.open(
                pair.secret_key,
                HybridCiphertext.from_bytes(LAC_128, transcript),
            )
            == plaintext
        )
        client.close_session(sid)

    def test_seal_open_round_trip_and_tamper_rejection(self, served):
        _, client = served
        key_id, _pk = client.keygen(LAC_128, SEED)
        sid, _ct, _shared = client.open_session(key_id)
        plaintext = b"\x00\x01\x02" * 11
        sealed = client.seal(sid, NONCE, plaintext)
        assert client.open_sealed(sid, NONCE, sealed) == plaintext
        tampered = bytes([sealed[0] ^ 0x80]) + sealed[1:]
        with pytest.raises(BadRequest, match="authentication"):
            client.open_sealed(sid, NONCE, tampered)
        # a wrong nonce fails authentication the same way
        with pytest.raises(BadRequest, match="authentication"):
            client.open_sealed(sid, bytes(12), sealed)
        client.close_session(sid)

    def test_empty_plaintext_seals(self, served):
        _, client = served
        key_id, _pk = client.keygen(LAC_128, SEED)
        sid, _ct, _shared = client.open_session(key_id)
        sealed = client.seal(sid, NONCE, b"")
        assert len(sealed) == 32  # just the tag
        assert client.open_sealed(sid, NONCE, sealed) == b""
        client.close_session(sid)


class TestSessionLifecycle:
    def test_closed_session_is_gone(self, served):
        _, client = served
        key_id, _pk = client.keygen(LAC_128, SEED)
        sid, _ct, _shared = client.open_session(key_id)
        client.close_session(sid)
        with pytest.raises(KeyNotFound):
            client.seal(sid, NONCE, b"late")
        with pytest.raises(KeyNotFound):
            client.close_session(sid)

    def test_unknown_session_and_key(self, served):
        _, client = served
        with pytest.raises(KeyNotFound):
            client.seal(0xDEAD, NONCE, b"no such session")
        with pytest.raises(KeyNotFound):
            client.open_session(0xBEEF)

    def test_sessions_counted_in_info(self, served):
        svc, client = served
        key_id, _pk = client.keygen(LAC_128, SEED)
        before = client.info()["service"]["sessions"]
        sid, _ct, _shared = client.open_session(key_id)
        assert client.info()["service"]["sessions"] == before + 1
        client.close_session(sid)
        assert client.info()["service"]["sessions"] == before

    def test_sessions_are_tenant_scoped(self, served):
        """Another tenant's session id behaves as if it did not exist."""
        _, client = served
        key_id, _pk = client.keygen(LAC_128, SEED, tenant=1)
        sid, _ct, _shared = client.open_session(key_id, tenant=1)
        with pytest.raises(KeyNotFound):
            client.seal(sid, NONCE, b"not yours", tenant=2)
        with pytest.raises(KeyNotFound):
            client.close_session(sid, tenant=2)
        # the owner still holds a live channel
        sealed = client.seal(sid, NONCE, b"mine", tenant=1)
        assert client.open_sealed(sid, NONCE, sealed, tenant=1) == b"mine"
        client.close_session(sid, tenant=1)


class TestSessionBound:
    """``TenantQuota.max_sessions`` bounds a tenant's open sessions, and
    removing a key closes the sessions opened on it."""

    def test_sessions_past_the_bound_are_shed_as_quota(self):
        # a tenant held to one key and one request in flight once opened
        # 2,000 sessions on that key; now the third one is refused
        quota = TenantQuota(tenant=4, max_keys=1, max_inflight=1, max_sessions=2)
        with ThreadedService(ServiceConfig(max_batch=4, tenant_quotas=(quota,))) as svc:
            client = KemClient(svc.connect(), retry=RetryPolicy(max_attempts=1))
            key_id, _pk = client.keygen(LAC_128, SEED, tenant=4)
            opened, refused = [], 0
            for _ in range(2000):
                try:
                    opened.append(client.open_session(key_id, tenant=4)[0])
                except ServiceBusy as busy:
                    assert "over quota (sessions)" in str(busy)
                    refused += 1
            assert (len(opened), refused) == (2, 1998)
            info = client.info()
            assert info["service"]["sessions"] == 2
            assert info["service"]["tenants"]["4"]["sessions"] == 2
            assert info["sheds"] == {"quota:0:4": 1998}
            # a closed session gives its slot back
            client.close_session(opened.pop(), tenant=4)
            opened.append(client.open_session(key_id, tenant=4)[0])
            with pytest.raises(ServiceBusy):
                client.open_session(key_id, tenant=4)
            client.close()

    def test_removing_a_key_closes_its_sessions(self):
        quota = TenantQuota(tenant=4, max_sessions=1)
        with ThreadedService(ServiceConfig(max_batch=4, tenant_quotas=(quota,))) as svc:
            client = KemClient(svc.connect(), retry=RetryPolicy(max_attempts=1))
            key_id, _pk = client.keygen(LAC_128, SEED, tenant=4)
            other_id, _pk = client.keygen(LAC_128, SEED)
            sid, _ct, _shared = client.open_session(key_id, tenant=4)
            kept, _ct, _shared = client.open_session(other_id)
            client.remove_key(key_id, tenant=4)
            for call in (
                lambda: client.seal(sid, NONCE, b"gone", tenant=4),
                lambda: client.open_sealed(sid, NONCE, bytes(32), tenant=4),
                lambda: client.close_session(sid, tenant=4),
            ):
                with pytest.raises(KeyNotFound, match=f"unknown session id {sid}"):
                    call()
            info = client.info()
            assert info["service"]["sessions"] == 1
            assert info["service"]["tenants"]["4"]["sessions"] == 0
            # another key's session is untouched, and the slot is back
            sealed = client.seal(kept, NONCE, b"kept")
            assert client.open_sealed(kept, NONCE, sealed) == b"kept"
            new_id, _pk = client.keygen(LAC_128, SEED, tenant=4)
            client.close_session(client.open_session(new_id, tenant=4)[0], tenant=4)
            client.close_session(kept)
            client.close()


class TestCrossSchemeSessions:
    def test_newhope_session_round_trip(self, served):
        """Sessions work over any registered KEM, not just LAC."""
        _, client = served
        key_id, _pk = client.keygen(NEWHOPE_512, SEED)
        sid, kem_ct, shared = client.open_session(key_id, MESSAGE)
        pair = NEWHOPE_SCHEME.keygen(NEWHOPE_512, SEED)
        want_ct, want_shared = NEWHOPE_SCHEME.encaps_one(
            NEWHOPE_512, pair, MESSAGE
        )
        assert kem_ct == want_ct
        assert shared == want_shared
        plaintext = b"post-quantum but not LAC"
        sealed = client.seal(sid, NONCE, plaintext)
        assert client.open_sealed(sid, NONCE, sealed) == plaintext
        client.close_session(sid)
