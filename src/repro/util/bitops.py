"""Bit-manipulation helpers shared by the crypto, ISA and cache layers.

All helpers operate on plain Python integers (arbitrary precision) or
``bytes``.  Widths are explicit everywhere; nothing here assumes a machine
word size.
"""

_WORD32 = 0xFFFFFFFF


def mask(width):
    """Return an integer with the low ``width`` bits set.

    >>> hex(mask(12))
    '0xfff'
    """
    if width < 0:
        raise ValueError("width must be non-negative, got %d" % width)
    return (1 << width) - 1


def bit(value, index):
    """Return bit ``index`` (0 = LSB) of ``value`` as 0 or 1."""
    return (value >> index) & 1


def bits_of(value, low, width):
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    >>> bits_of(0b110110, 1, 3)
    3
    """
    return (value >> low) & mask(width)


def set_bits(value, low, width, field):
    """Return ``value`` with bits [low, low+width) replaced by ``field``."""
    cleared = value & ~(mask(width) << low)
    return cleared | ((field & mask(width)) << low)


def sign_extend(value, width):
    """Interpret the low ``width`` bits of ``value`` as a signed integer.

    >>> sign_extend(0xFFF, 12)
    -1
    """
    value &= mask(width)
    sign_bit = 1 << (width - 1)
    return (value ^ sign_bit) - sign_bit


def xor_bytes(a, b):
    """XOR two equal-length byte strings.

    Raises ``ValueError`` on length mismatch -- silently truncating would
    hide tampering-mask construction bugs in the attack toolkit.
    """
    if len(a) != len(b):
        raise ValueError("xor_bytes length mismatch: %d vs %d" % (len(a), len(b)))
    return bytes(x ^ y for x, y in zip(a, b))


def bytes_to_words_be(data):
    """Split ``data`` (length divisible by 4) into big-endian 32-bit words."""
    if len(data) % 4:
        raise ValueError("data length %d is not a multiple of 4" % len(data))
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]


def words_to_bytes_be(words):
    """Concatenate 32-bit words into big-endian bytes."""
    return b"".join(int(w & _WORD32).to_bytes(4, "big") for w in words)
