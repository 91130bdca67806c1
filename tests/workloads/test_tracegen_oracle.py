"""Lockstep oracle: the native trace generator against the Python loop.

:func:`tests.oracle.tracegen._generate_python` is the reference
model; :func:`repro.cpu.native.tracegen` runs the same loop in C,
drawing from the same ``random.Random``'s MT19937 state.  Run on the
same profile and a stream seeded alike, the two must write the same
seven columns and leave their streams in the same state.  Hypothesis
draws the profile -- one of the 18 SPEC2000 ones, or a drawn one with
footprints up to 2**40 (``randrange`` over more than 32 bits), zero
dependency depth, rates at 0 and 1 and code regions of a few bytes --
the seed and the length, 0 and 1 included.

Tier-1 runs a derandomised profile; CI adds
``--hypothesis-profile=oracle-long`` (registered in
``tests/conftest.py``).  A failure is a generator bug: pin the
counterexample below as an ``@example``.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu import native
from repro.workloads.spec import SPEC2000_PROFILES, BenchmarkProfile
from repro.workloads.tracegen import _config
from tests.oracle.tracegen import _generate_python


_RATES = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def drawn_profiles(draw):
    """A valid :class:`BenchmarkProfile` from the edges of each field,
    with footprints of every bit length up to 41."""
    # Five op weights and a remainder of at least one keep the op
    # fractions' sum below 1, zeros and an all-load mix included.
    weights = [draw(st.integers(0, 100)) for _ in range(5)]
    total = sum(weights) + draw(st.integers(1, 100))
    loads, stores, branches, fp, mul = (w / total for w in weights)
    return BenchmarkProfile(
        name="drawn", suite=draw(st.sampled_from(("int", "fp"))),
        footprint_bytes=draw(st.one_of(
            st.sampled_from((0, 63, 64, 65, 2**32 - 1, 2**32, 2**32 + 1,
                             2**40)),
            st.integers(0, 40).flatmap(
                lambda bits: st.integers(2**bits // 2, 2**bits)))),
        code_bytes=draw(st.one_of(st.integers(1, 64),
                                  st.integers(1, 1 << 20))),
        load_fraction=loads, store_fraction=stores,
        branch_fraction=branches, fp_fraction=fp, mul_fraction=mul,
        hot_fraction=draw(_RATES), stream_fraction=draw(_RATES),
        chase_fraction=draw(_RATES), mispredict_rate=draw(_RATES),
        dependency_depth=draw(st.one_of(st.just(0), st.integers(0, 80))),
    )


def _profile_examples(test):
    for name in sorted(SPEC2000_PROFILES):
        test = example(profile=SPEC2000_PROFILES[name], seed=2006,
                       length=3000)(test)
    return test


@settings(deadline=None, derandomize=True)
@_profile_examples
@given(profile=st.one_of(st.sampled_from(sorted(
           SPEC2000_PROFILES.values(), key=lambda p: p.name)),
           drawn_profiles()),
       seed=st.integers(0, 2**64 - 1),
       length=st.one_of(st.sampled_from((0, 1)), st.integers(0, 2000)))
def test_native_tracegen_equals_python(profile, seed, length):
    doubles, ints = _config(profile)
    native_rng, python_rng = random.Random(seed), random.Random(seed)
    packed = native.tracegen(native_rng, doubles, ints, length)
    oracle = _generate_python(python_rng, doubles, ints, length)
    assert packed.columns() == oracle.columns()
    assert native_rng.getstate() == python_rng.getstate()


def test_native_tracegen_rejects_what_would_overrun_its_buffers():
    doubles, ints = _config(SPEC2000_PROFILES["gcc"])
    for bad in ((doubles[:-1], ints, 10), (doubles, ints + ints[:1], 10),
                (ints, doubles, 10), (doubles, ints, -1)):
        with pytest.raises(ValueError):
            native.tracegen(random.Random(1), *bad)
