"""Utility-layer tests: bitops, RNG streams, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestBitops:
    def test_mask(self):
        assert mask(0) == 0
        assert mask(12) == 0xFFF
        with pytest.raises(ValueError):
            mask(-1)

    def test_bit_and_bits_of(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0
        assert bits_of(0xDEADBEEF, 8, 8) == 0xBE

    def test_set_bits(self):
        assert set_bits(0, 4, 4, 0xF) == 0xF0
        assert set_bits(0xFF, 0, 4, 0) == 0xF0

    def test_sign_extend(self):
        assert sign_extend(0xFFFF, 16) == -1
        assert sign_extend(0x7FFF, 16) == 0x7FFF
        assert sign_extend(0x8000, 16) == -0x8000

    def test_xor_bytes(self):
        assert xor_bytes(b"\xff\x00", b"\x0f\x0f") == b"\xf0\x0f"
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    @settings(max_examples=40, deadline=None)
    @given(words=st.lists(st.integers(0, 2**32 - 1), max_size=16))
    def test_words_bytes_roundtrip(self, words):
        assert bytes_to_words_be(words_to_bytes_be(words)) == words

    def test_bytes_to_words_rejects_partial(self):
        with pytest.raises(ValueError):
            bytes_to_words_be(b"\x00\x01\x02")


class TestRng:
    def test_streams_are_reproducible(self):
        a = DeterministicRng(1).stream("x").random()
        b = DeterministicRng(1).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        rng = DeterministicRng(1)
        first = rng.stream("a").random()
        # Drawing from stream b must not perturb stream a's sequence.
        rng2 = DeterministicRng(1)
        rng2.stream("b").random()
        assert rng2.stream("a").random() == first

    def test_stream_identity_cached(self):
        rng = DeterministicRng(1)
        assert rng.stream("s") is rng.stream("s")

    def test_different_seeds_differ(self):
        assert (DeterministicRng(1).stream("x").random()
                != DeterministicRng(2).stream("x").random())

    def test_derive(self):
        child = DeterministicRng(1).derive("sub")
        again = DeterministicRng(1).derive("sub")
        assert child.seed == again.seed != 1


class TestStats:
    def test_counter(self):
        c = Counter("n")
        c.add()
        c.add(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_histogram(self):
        h = Histogram("lat")
        h.add(10)
        h.add(10)
        h.add(30)
        assert h.total == 3
        assert h.mean() == pytest.approx(50 / 3)

    def test_empty_histogram_mean(self):
        assert Histogram("x").mean() == 0.0

    def test_percentile(self):
        h = Histogram("gap")
        for key, weight in ((10, 50), (20, 45), (90, 5)):
            h.add(key, weight)
        assert h.percentile(50) == 10
        assert h.percentile(95) == 20
        assert h.percentile(96) == 90
        assert h.percentile(100) == 90
        assert h.percentile(0) == 10

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)
        with pytest.raises(ValueError):
            Histogram("x").percentile(-1)

    def test_percentile_empty_is_none(self):
        # None, not 0: "no observations" must be distinguishable from
        # "the percentile is bucket 0" (renderers show `--`).
        assert Histogram("x").percentile(95) is None

    def test_max_key(self):
        h = Histogram("x")
        assert h.max_key() is None
        h.add(3)
        h.add(11)
        assert h.max_key() == 11

    def test_group_accessors(self):
        g = StatGroup("g")
        g.counter("a").add()
        g.histogram("h").add(1)
        assert "a" in g and "h" in g
        assert g.names() == ["a", "h"]
        assert g.as_dict() == {"a": 1, "h": {1: 1}}

    def test_group_type_conflict(self):
        g = StatGroup("g")
        g.counter("a")
        with pytest.raises(TypeError):
            g.histogram("a")

    def test_group_reset(self):
        g = StatGroup("g")
        g.counter("a").add()
        g.reset()
        assert g["a"].value == 0
