"""Synthetic trace generator.

Turns a :class:`~repro.workloads.spec.BenchmarkProfile` into a committed-
path instruction trace with the profile's statistical structure:

- a small *hot* data region (cache-resident) plus a large *cold* region;
- cold accesses either stream (sequential line-granular walks, one miss
  per line, prefetch-friendly DRAM row hits) or scatter randomly;
- a configurable fraction of loads are *pointer-chasing*: their address
  register is the destination of an earlier load, creating the dependent
  miss chains that authen-then-fetch serialises;
- branch mispredict flags drawn at the profile's rate;
- register dataflow with profile-controlled dependency depth (ILP).

Generation is deterministic given (profile, seed).  The loop runs in C
(:func:`repro.cpu.native.tracegen`); its oracle is the Python loop in
``tests/oracle/tracegen.py``, and both draw the same numbers from the
same stream.
"""

from array import array

from repro.util.rng import DeterministicRng
from repro.workloads.trace import Trace

DATA_BASE = 1 << 20           # data region starts at 1 MB
HOT_BYTES = 8 * 1024          # hot set: comfortably L1-resident


def generate_trace(profile, num_instructions, seed=2006, name=None):
    """Generate ``num_instructions`` committed instructions for ``profile``.

    Runs the native loop (:func:`repro.cpu.native.tracegen`), so it
    raises :class:`~repro.errors.KernelUnavailableError` when the
    kernel cannot be built.
    """
    if num_instructions < 0:
        raise ValueError("num_instructions must be non-negative")
    rng = DeterministicRng(seed).stream("workload.%s" % profile.name)
    from repro.cpu import native  # loads ctypes: only when generating

    return Trace(
        name or profile.name,
        native.tracegen(rng, *_config(profile), num_instructions),
        footprint_bytes=profile.footprint_bytes,
        suite=profile.suite,
    )


def _config(profile):
    """The generator's config blocks: an ``array('d')`` of the cumulative
    op thresholds and the four rates, and an ``array('q')`` of the
    dependency depth and the code and data layout, in the C source's
    G_* orders."""
    p_load = profile.load_fraction
    p_store = p_load + profile.store_fraction
    p_branch = p_store + profile.branch_fraction
    p_fp = p_branch + profile.fp_fraction
    p_mul = p_fp + profile.mul_fraction
    cold_bytes = max(profile.footprint_bytes, 64)
    return (array("d", (p_load, p_store, p_branch, p_fp, p_mul,
                        profile.hot_fraction, profile.stream_fraction,
                        profile.chase_fraction, profile.mispredict_rate)),
            array("q", (profile.dependency_depth, profile.code_bytes,
                        DATA_BASE, cold_bytes, DATA_BASE + cold_bytes,
                        HOT_BYTES)))
