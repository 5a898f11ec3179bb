"""Tests for the LAC CPA-PKE."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bch.decoder import BCHDecoder
from repro.cosim.protocol import PROFILE_TABLE
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_192, LAC_256
from repro.lac.pke import Ciphertext, LacPke, PublicKey, SecretKey
from repro.ring.ternary import ternary_mul_truncated


@pytest.fixture(params=ALL_PARAMS, ids=str)
def pke(request):
    return LacPke(request.param)


SEED = bytes(range(32))


class TestKeygen:
    def test_deterministic(self, pke):
        pk1, sk1 = pke.keygen(SEED)
        pk2, sk2 = pke.keygen(SEED)
        assert pk1.seed_a == pk2.seed_a
        assert np.array_equal(pk1.b, pk2.b)
        assert sk1.s == sk2.s

    def test_seed_sensitivity(self, pke):
        pk1, _ = pke.keygen(SEED)
        pk2, _ = pke.keygen(bytes(32))
        assert not np.array_equal(pk1.b, pk2.b)

    def test_rlwe_relation(self, pke):
        """b = a*s + e with ternary e: verify the residual is ternary."""
        from repro.lac.sampling import gen_a

        pk, sk = pke.keygen(SEED)
        a = gen_a(pk.seed_a, pke.params)
        ring = pke.ring
        residual = ring.sub(pk.b, ring.mul(sk.s.to_zq(), a))
        centered = np.where(residual > 125, residual - 251, residual)
        assert set(np.unique(centered)) <= {-1, 0, 1}
        assert np.count_nonzero(centered) == pke.params.h

    def test_secret_weight(self, pke):
        _, sk = pke.keygen(SEED)
        assert sk.s.weight == pke.params.h

    def test_bad_seed_length(self, pke):
        with pytest.raises(ValueError):
            pke.keygen(b"short")


class TestEncryptDecrypt:
    def test_roundtrip(self, pke):
        pk, sk = pke.keygen(SEED)
        message = bytes(range(32))
        ct = pke.encrypt(pk, message, coins=b"\x07" * 32)
        decoded = pke.decrypt(sk, ct)
        assert decoded.message == message
        assert decoded.bch_result.success

    def test_deterministic_encryption(self, pke):
        pk, _ = pke.keygen(SEED)
        ct1 = pke.encrypt(pk, bytes(32), coins=b"c" * 32)
        ct2 = pke.encrypt(pk, bytes(32), coins=b"c" * 32)
        assert ct1.to_bytes() == ct2.to_bytes()

    def test_coin_sensitivity(self, pke):
        pk, _ = pke.keygen(SEED)
        ct1 = pke.encrypt(pk, bytes(32), coins=b"a" * 32)
        ct2 = pke.encrypt(pk, bytes(32), coins=b"b" * 32)
        assert ct1.to_bytes() != ct2.to_bytes()

    @given(message=st.binary(min_size=32, max_size=32))
    @settings(max_examples=8, deadline=None)
    def test_arbitrary_messages(self, message):
        pke = LacPke(LAC_128)
        pk, sk = pke.keygen(SEED)
        ct = pke.encrypt(pk, message, coins=b"r" * 32)
        assert pke.decrypt(sk, ct).message == message

    def test_wrong_key_fails(self, pke):
        pk, _ = pke.keygen(SEED)
        _, sk_other = pke.keygen(bytes(32))
        ct = pke.encrypt(pk, bytes(range(32)), coins=b"z" * 32)
        decoded = pke.decrypt(sk_other, ct)
        assert decoded.message != bytes(range(32))

    def test_non_ct_bch_path(self):
        # the reference profile decrypts with the submission decoder
        pke = LacPke(LAC_128, PROFILE_TABLE["ref"].schedule(LAC_128))
        assert isinstance(pke.schedule.bch_decoder, BCHDecoder)
        pk, sk = pke.keygen(SEED)
        ct = pke.encrypt(pk, b"\x42" * 32, coins=b"n" * 32)
        decoded = pke.decrypt(sk, ct)
        assert decoded.message == b"\x42" * 32

    def test_truncated_v_multiplier_equivalent(self):
        """The reference's truncated v-mult changes cycles, not results."""
        plain = LacPke(LAC_192)
        truncated = LacPke(LAC_192, PROFILE_TABLE["ref"].schedule(LAC_192))
        assert truncated.schedule.v_multiplier is ternary_mul_truncated
        pk, sk = plain.keygen(SEED)
        ct_a = plain.encrypt(pk, b"m" * 32, coins=b"c" * 32)
        ct_b = truncated.encrypt(pk, b"m" * 32, coins=b"c" * 32)
        assert ct_a.to_bytes() == ct_b.to_bytes()

    def test_bad_message_length(self, pke):
        pk, _ = pke.keygen(SEED)
        with pytest.raises(ValueError):
            pke.encrypt(pk, b"short", coins=b"c" * 32)


class TestSerialization:
    def test_public_key_roundtrip(self, pke):
        pk, _ = pke.keygen(SEED)
        blob = pk.to_bytes()
        assert len(blob) == pke.params.public_key_bytes
        restored = PublicKey.from_bytes(pke.params, blob)
        assert restored.seed_a == pk.seed_a
        assert np.array_equal(restored.b, pk.b)

    def test_secret_key_roundtrip(self, pke):
        _, sk = pke.keygen(SEED)
        blob = sk.to_bytes()
        assert len(blob) == pke.params.secret_key_bytes
        assert SecretKey.from_bytes(pke.params, blob).s == sk.s

    def test_ciphertext_roundtrip(self, pke):
        pk, sk = pke.keygen(SEED)
        ct = pke.encrypt(pk, b"\x11" * 32, coins=b"s" * 32)
        blob = ct.to_bytes()
        assert len(blob) == pke.params.ciphertext_bytes
        restored = Ciphertext.from_bytes(pke.params, blob)
        assert np.array_equal(restored.u, ct.u)
        assert np.array_equal(restored.v_compressed, ct.v_compressed)
        # and it still decrypts
        assert pke.decrypt(sk, restored).message == b"\x11" * 32

    def test_public_key_wrong_length(self, pke):
        with pytest.raises(ValueError):
            PublicKey.from_bytes(pke.params, b"\x00" * 10)

    def test_public_key_out_of_range_coefficient(self, pke):
        pk, _ = pke.keygen(SEED)
        blob = bytearray(pk.to_bytes())
        blob[-1] = 255  # >= q
        with pytest.raises(ValueError):
            PublicKey.from_bytes(pke.params, bytes(blob))

    def test_ciphertext_wrong_length(self, pke):
        with pytest.raises(ValueError):
            Ciphertext.from_bytes(pke.params, b"\x00" * 3)

    def test_digest_stable(self, pke):
        pk, _ = pke.keygen(SEED)
        assert pk.digest() == pk.digest()
        assert len(pk.digest()) == 32


class TestDecryptionFailureRate:
    """LAC's noise must stay far below the BCH capacity."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_channel_errors_well_below_t(self, params):
        pke = LacPke(params)
        pk, sk = pke.keygen(SEED)
        worst = 0
        for i in range(5):
            coins = bytes([i]) * 32
            ct = pke.encrypt(pk, b"\x99" * 32, coins=coins)
            decoded = pke.decrypt(sk, ct)
            assert decoded.message == b"\x99" * 32
            worst = max(worst, decoded.channel_errors)
        assert worst <= params.bch.t // 2
