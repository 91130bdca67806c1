"""HMAC-SHA-256 (RFC 2104 / FIPS 198) and MAC truncation.

The paper's reference MAC is a 64-bit truncated HMAC-SHA-256 per protected
cache line (Section 5.2.3).  The attacks tamper with ciphertext, never with
the hash, so the functional MAC is the standard library's.
"""

import hmac


def hmac_sha256(key, message):
    """Compute HMAC-SHA-256 of ``message`` under ``key``."""
    return hmac.digest(bytes(key), message, "sha256")


def truncated_mac(key, message, mac_bits=64):
    """Truncated HMAC tag, default 64 bits per the reference design."""
    if mac_bits % 8 or not 0 < mac_bits <= 256:
        raise ValueError("mac_bits must be a multiple of 8 in (0, 256]")
    return hmac_sha256(key, message)[: mac_bits // 8]
