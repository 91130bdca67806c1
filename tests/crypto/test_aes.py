"""AES known-answer tests (FIPS-197 appendix vectors) and properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES


class TestFipsVectors:
    def test_aes128_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plain = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES(key).encrypt_block(plain) == expected

    def test_aes128_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plain) == expected

    def test_aes192_fips197_appendix_c2(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(plain) == expected

    def test_aes256_fips197_appendix_c3(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plain) == expected

    def test_aes256_decrypt_inverts_appendix_c3(self):
        key = bytes(range(32))
        cipher = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).decrypt_block(cipher) == bytes.fromhex(
            "00112233445566778899aabbccddeeff"
        )


class TestInterface:
    @pytest.mark.parametrize("keylen,rounds", [(16, 10), (24, 12), (32, 14)])
    def test_round_count_matches_key_length(self, keylen, rounds):
        assert AES(bytes(keylen)).rounds == rounds

    @pytest.mark.parametrize("keylen", [0, 8, 15, 17, 31, 33, 64])
    def test_bad_key_length_rejected(self, keylen):
        with pytest.raises(ValueError):
            AES(bytes(keylen))

    @pytest.mark.parametrize("blocklen", [0, 8, 15, 17, 32])
    def test_bad_block_length_rejected(self, blocklen):
        aes = AES(bytes(16))
        with pytest.raises(ValueError):
            aes.encrypt_block(bytes(blocklen))
        with pytest.raises(ValueError):
            aes.decrypt_block(bytes(blocklen))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=16, max_size=16),
    )
    def test_decrypt_inverts_encrypt(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @settings(max_examples=15, deadline=None)
    @given(
        key=st.binary(min_size=24, max_size=24),
        block=st.binary(min_size=16, max_size=16),
    )
    def test_decrypt_inverts_encrypt_192(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @settings(max_examples=15, deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        block=st.binary(min_size=16, max_size=16),
    )
    def test_decrypt_inverts_encrypt_256(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @settings(max_examples=15, deadline=None)
    @given(block=st.binary(min_size=16, max_size=16))
    def test_encryption_changes_block(self, block):
        # AES is a permutation without fixed points being *guaranteed*, but
        # hitting one by chance is ~2^-128; treat equality as failure.
        assert AES(bytes(range(16))).encrypt_block(block) != block
