"""Workloads: the columnar trace and SPEC2000-like synthetic generators.

The paper evaluates 18 SPEC2000 INT/FP benchmarks with high L2 miss rates
on SimpleScalar.  SPEC binaries and SimPoint traces are not redistributable,
so this package provides statistically parameterised synthetic generators
(one profile per benchmark: footprint, memory mix, pointer-chasing depth,
branch predictability, ILP) that reproduce the *relative* behaviour the
policies are sensitive to.  See DESIGN.md for the substitution rationale.

A trace has one form: a :class:`Trace` (name, footprint, suite) around
one :class:`PackedTrace`, six parallel columns the generators append to
directly and every consumer reads.
"""

from repro.workloads.spec import (
    BenchmarkProfile,
    SPEC2000_PROFILES,
    fp_benchmarks,
    get_profile,
    int_benchmarks,
)
from repro.workloads.trace import Op, PackedTrace, Trace
from repro.workloads.tracegen import generate_trace

__all__ = [
    "Op",
    "Trace",
    "PackedTrace",
    "BenchmarkProfile",
    "SPEC2000_PROFILES",
    "get_profile",
    "int_benchmarks",
    "fp_benchmarks",
    "generate_trace",
]
