"""Utility layer: bit manipulation, deterministic RNG streams, statistics."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.util.bitops": ("bit", "bits_of", "bytes_to_words_be", "mask",
                          "set_bits", "sign_extend", "words_to_bytes_be",
                          "xor_bytes"),
    "repro.util.rng": ("DeterministicRng",),
    "repro.util.statistics": ("Counter", "Histogram", "StatGroup"),
})
