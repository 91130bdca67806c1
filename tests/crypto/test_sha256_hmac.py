"""SHA-256 / HMAC known-answer tests for the functional MAC and hash tree.

Both hash through the standard library; the vectors pin the digests they
rely on, and the padded block count is the latency model's only view of
SHA-256's structure.
"""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import hmac_sha256, truncated_mac
from repro.crypto.latency import padded_block_count

import pytest


def sha256(data):
    return hashlib.sha256(data).digest()


class TestSha256Vectors:
    def test_empty(self):
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256(msg).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )


class TestSha256Properties:
    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(0, 1024))
    def test_padded_block_count(self, length):
        # The total padded length must be the next multiple of 64 that
        # leaves room for the 9 mandatory trailer bytes.
        blocks = padded_block_count(length)
        assert blocks * 64 >= length + 9
        assert (blocks - 1) * 64 < length + 9


class TestHmac:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        tag = hmac_sha256(key, b"Hi There")
        assert tag.hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case_2(self):
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_long_key_is_hashed(self):
        key = b"k" * 200
        assert hmac_sha256(key, b"m") == stdlib_hmac.new(
            key, b"m", hashlib.sha256
        ).digest()

    @settings(max_examples=40, deadline=None)
    @given(key=st.binary(min_size=1, max_size=100), msg=st.binary(max_size=200))
    def test_matches_stdlib(self, key, msg):
        assert hmac_sha256(key, msg) == stdlib_hmac.new(
            key, msg, hashlib.sha256
        ).digest()

    def test_truncated_mac_is_prefix(self):
        key, msg = b"key", b"line"
        assert truncated_mac(key, msg, 64) == hmac_sha256(key, msg)[:8]

    @pytest.mark.parametrize("bits", [0, 4, 7, 257, 264])
    def test_truncated_mac_rejects_bad_width(self, bits):
        with pytest.raises(ValueError):
            truncated_mac(b"k", b"m", bits)
