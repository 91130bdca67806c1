"""AES (Rijndael) block cipher, implemented from scratch.

Supports 128-, 192- and 256-bit keys on 128-bit blocks, matching the
paper's reference cipher (Section 5.2.1: a pipelined 256-bit Rijndael with
an 80 ns reference decryption latency).  This implementation is the
*functional* half: it produces real ciphertext that the attack suite
tampers with.  Timing is modelled separately in
:mod:`repro.crypto.latency`.

The S-box is generated from the GF(2^8) inverse plus affine transform
(FIPS-197).  Encryption uses the 32-bit table-lookup round of the
Rijndael specification: four 256-entry tables fold SubBytes, ShiftRows
and MixColumns into four lookups and XORs per state column.  Decryption
keeps the byte-oriented InvShiftRows/InvSubBytes/InvMixColumns round, so
decrypt(encrypt(x)) == x checks one formulation against the other.
"""

import struct

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


def _build_sbox():
    """Generate the AES S-box from first principles (GF(2^8) inversion)."""
    # Build exp/log tables for GF(2^8) with the AES polynomial 0x11B,
    # using generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inv(a):
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = [0] * 256
    for value in range(256):
        b = inv(value)
        res = 0
        for i in range(8):
            res |= (
                (
                    (b >> i)
                    ^ (b >> ((i + 4) % 8))
                    ^ (b >> ((i + 5) % 8))
                    ^ (b >> ((i + 6) % 8))
                    ^ (b >> ((i + 7) % 8))
                    ^ (0x63 >> i)
                )
                & 1
            ) << i
        sbox[value] = res
    return sbox, exp, log


_SBOX, _EXP, _LOG = _build_sbox()
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i


def _gmul(a, b):
    """Multiply in GF(2^8) with the AES reduction polynomial."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _build_t_tables():
    """Encryption tables T0..T3: T0[x] is the MixColumns column of S(x)."""
    t0 = []
    for value in _SBOX:
        double = _gmul(value, 2)
        t0.append(
            (double << 24) | (value << 16) | (value << 8) | (double ^ value)
        )
    return [
        [((w >> n) | (w << (32 - n))) & 0xFFFFFFFF for w in t0]
        for n in (0, 8, 16, 24)
    ]


_T0, _T1, _T2, _T3 = _build_t_tables()

_RCON = [0x01]
while len(_RCON) < 14:
    _last = _RCON[-1]
    _RCON.append(((_last << 1) ^ (0x11B if _last & 0x80 else 0)) & 0xFF)


class AES:
    """AES block cipher with a fixed key.

    >>> key = bytes(range(16))
    >>> aes = AES(key)
    >>> block = b"theblockis16byte"
    >>> aes.decrypt_block(aes.encrypt_block(block)) == block
    True
    """

    block_size = 16

    def __init__(self, key):
        key = bytes(key)
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise ValueError(
                "AES key must be 16, 24 or 32 bytes, got %d" % len(key)
            )
        self.key = key
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        words = self._expand_key(key)
        # Encryption reads the schedule as 32-bit big-endian words,
        # decryption as one 16-byte list per round.
        self._key_words = [int.from_bytes(bytes(w), "big") for w in words]
        self._round_keys = [
            [b for w in words[4 * rnd : 4 * rnd + 4] for b in w]
            for rnd in range(self.rounds + 1)
        ]

    def _expand_key(self, key):
        """FIPS-197 key schedule; returns a list of 4-byte words."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        return words

    # State layout: column-major list of 16 bytes (state[4*c + r]); the
    # encrypt path holds column c as the big-endian word s_c.

    def encrypt_block(self, block):
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes, got %d" % len(block))
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k = self._key_words
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= k[0]
        s1 ^= k[1]
        s2 ^= k[2]
        s3 ^= k[3]
        for i in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k[i],
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k[i + 1],
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k[i + 2],
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k[i + 3],
            )
        # Final round: SubBytes and ShiftRows without MixColumns.
        sb = _SBOX
        i = 4 * self.rounds
        return struct.pack(
            ">4I",
            ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
             | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ k[i],
            ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
             | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ k[i + 1],
            ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
             | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ k[i + 2],
            ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
             | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ k[i + 3],
        )

    def decrypt_block(self, block):
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes, got %d" % len(block))
        keys = self._round_keys
        state = [b ^ k for b, k in zip(block, keys[self.rounds])]
        for rnd in range(self.rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            state = self._sub_bytes(state, _INV_SBOX)
            state = [b ^ k for b, k in zip(state, keys[rnd])]
            state = self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        state = self._sub_bytes(state, _INV_SBOX)
        state = [b ^ k for b, k in zip(state, keys[0])]
        return bytes(state)

    @staticmethod
    def _sub_bytes(state, box):
        return [box[b] for b in state]

    @staticmethod
    def _inv_shift_rows(state):
        out = list(state)
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                out[4 * c + r] = row[c]
        return out

    @staticmethod
    def _inv_mix_columns(state):
        out = [0] * 16
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            out[4 * c + 0] = (
                _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
            )
            out[4 * c + 1] = (
                _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
            )
            out[4 * c + 2] = (
                _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
            )
            out[4 * c + 3] = (
                _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)
            )
        return out
