"""Utility layer: bit manipulation, deterministic RNG streams, statistics."""

from repro.util.bitops import (
    bit,
    bits_of,
    bytes_to_words_be,
    mask,
    set_bits,
    sign_extend,
    words_to_bytes_be,
    xor_bytes,
)
from repro.util.rng import DeterministicRng
from repro.util.statistics import Counter, Histogram, StatGroup

__all__ = [
    "bit",
    "bits_of",
    "bytes_to_words_be",
    "mask",
    "set_bits",
    "sign_extend",
    "words_to_bytes_be",
    "xor_bytes",
    "DeterministicRng",
    "Counter",
    "Histogram",
    "StatGroup",
]
