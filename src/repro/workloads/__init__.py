"""Workloads: the columnar trace and SPEC2000-like synthetic generators.

The paper evaluates 18 SPEC2000 INT/FP benchmarks with high L2 miss rates
on SimpleScalar.  SPEC binaries and SimPoint traces are not redistributable,
so this package provides statistically parameterised synthetic generators
(one profile per benchmark: footprint, memory mix, pointer-chasing depth,
branch predictability, ILP) that reproduce the *relative* behaviour the
policies are sensitive to.  See DESIGN.md for the substitution rationale.

A trace has one form: a :class:`Trace` (name, footprint, suite) around
one :class:`PackedTrace`, seven int64 columns the generators pack once
and every consumer reads.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.workloads.trace": ("Op", "Trace", "PackedTrace"),
    "repro.workloads.spec": ("BenchmarkProfile", "SPEC2000_PROFILES",
                             "get_profile", "int_benchmarks",
                             "fp_benchmarks"),
    "repro.workloads.tracegen": ("generate_trace",),
})
