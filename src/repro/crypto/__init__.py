"""Cryptographic substrate.

The cipher is implemented from scratch because the attack suite
manipulates real ciphertext and the paper's latency analysis (Table 1) is
parameterised by the ciphers' structure.  The MAC's hash is the standard
library's SHA-256: the attacks tamper with ciphertext, never with the
hash, and the latency model needs only its padded block count.

- :mod:`repro.crypto.aes` -- AES-128/192/256 block cipher (Rijndael).
- :mod:`repro.crypto.hmac` -- HMAC-SHA-256 and truncated MACs.
- :mod:`repro.crypto.modes` -- ECB, CBC and counter (CTR) modes.
- :mod:`repro.crypto.cbc_mac` -- CBC-MAC for the Table 1 comparison.
- :mod:`repro.crypto.latency` -- the latency model used by the timing
  simulator (decryption vs authentication gap, Table 1).
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.crypto.aes": ("AES",),
    "repro.crypto.hmac": ("hmac_sha256", "truncated_mac"),
    "repro.crypto.cbc_mac": ("cbc_mac",),
    "repro.crypto.modes": ("ecb_encrypt", "ecb_decrypt", "cbc_encrypt",
                           "cbc_decrypt", "ctr_keystream", "ctr_transform"),
    "repro.crypto.latency": ("CryptoLatencyModel", "LatencyGap",
                             "latency_gap_table"),
})
