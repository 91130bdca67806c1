"""Workload profile and trace generator tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.spec import (
    SPEC2000_PROFILES,
    fp_benchmarks,
    get_profile,
    int_benchmarks,
)
from repro.workloads.trace import Op
from repro.workloads.tracegen import DATA_BASE, generate_trace
from tests.traces import row, trace_from_rows


def rows(trace):
    """The trace's ``(pc, op, dest, srcs, addr, mispredict)`` rows."""
    return list(trace.packed().rows())


class TestProfiles:
    def test_eighteen_benchmarks(self):
        assert len(SPEC2000_PROFILES) == 18
        assert len(int_benchmarks()) == 8
        assert len(fp_benchmarks()) == 10

    def test_suites_disjoint(self):
        assert not set(int_benchmarks()) & set(fp_benchmarks())

    def test_get_profile(self):
        assert get_profile("mcf").suite == "int"
        with pytest.raises(KeyError):
            get_profile("doom3")

    def test_int_profiles_have_no_fp(self):
        for name in int_benchmarks():
            assert get_profile(name).fp_fraction == 0.0

    def test_validation_rejects_bad_fractions(self):
        base = get_profile("mcf")
        with pytest.raises(ValueError):
            dataclasses.replace(base, load_fraction=0.9, store_fraction=0.2)
        with pytest.raises(ValueError):
            dataclasses.replace(base, chase_fraction=1.5)

    def test_memory_bound_benchmarks_have_large_footprints(self):
        for name in ("mcf", "swim", "mgrid"):
            assert get_profile(name).footprint_bytes >= 8 * 1024 * 1024


class TestTraceContainer:
    def test_trace_len_iter(self):
        trace = trace_from_rows([row(0, Op.IALU)] * 5)
        assert len(trace) == 5
        assert sum(1 for _ in trace.packed().rows()) == 5

    def test_op_mix(self):
        trace = trace_from_rows([row(0, Op.LOAD), row(4, Op.IALU)])
        mix = trace.op_mix()
        assert mix["load"] == 0.5


class TestGenerator:
    def test_deterministic(self):
        p = get_profile("twolf")
        a = generate_trace(p, 500, seed=1)
        b = generate_trace(p, 500, seed=1)
        assert a.packed().columns() == b.packed().columns()

    def test_seed_changes_trace(self):
        p = get_profile("twolf")
        a = generate_trace(p, 500, seed=1)
        b = generate_trace(p, 500, seed=2)
        assert a.packed().columns() != b.packed().columns()

    def test_requested_length(self):
        assert len(generate_trace(get_profile("gcc"), 321)) == 321
        assert len(generate_trace(get_profile("gcc"), 0)) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(get_profile("gcc"), -1)

    def test_op_mix_tracks_profile(self):
        p = get_profile("swim")
        trace = generate_trace(p, 20_000)
        mix = trace.op_mix()
        assert mix["load"] == pytest.approx(p.load_fraction, abs=0.02)
        assert mix["store"] == pytest.approx(p.store_fraction, abs=0.02)
        assert mix["fpu"] == pytest.approx(p.fp_fraction, abs=0.02)

    def test_mem_ops_have_addresses(self):
        for _, op, _, _, addr, _ in rows(generate_trace(get_profile("art"),
                                                       2000)):
            if op in (Op.LOAD, Op.STORE):
                assert addr >= DATA_BASE
            else:
                assert addr == -1

    def test_addresses_within_protected_region(self):
        p = get_profile("mcf")  # largest footprint
        for _, op, _, _, addr, _ in rows(generate_trace(p, 5000)):
            if op in (Op.LOAD, Op.STORE):
                assert addr < 256 * 1024 * 1024

    def test_pcs_within_code_region(self):
        p = get_profile("gcc")
        for pc in generate_trace(p, 5000).packed().pcs:
            assert 0 <= pc < p.code_bytes
            assert pc % 4 == 0

    def test_mispredicts_only_on_branches(self):
        for _, op, _, _, _, mispredict in rows(
                generate_trace(get_profile("twolf"), 5000)):
            if mispredict:
                assert op == Op.BRANCH

    def test_mispredict_rate_tracks_profile(self):
        p = get_profile("twolf")
        trace = generate_trace(p, 30_000)
        branches = [r for r in rows(trace) if r[1] == Op.BRANCH]
        rate = sum(r[5] for r in branches) / len(branches)
        assert rate == pytest.approx(p.mispredict_rate, abs=0.02)

    def test_loads_have_destinations(self):
        for _, op, dest, _, _, _ in rows(generate_trace(get_profile("gap"),
                                                       2000)):
            if op == Op.LOAD:
                assert dest > 0

    def test_chase_heavy_profile_has_load_dependent_loads(self):
        trace = generate_trace(get_profile("mcf"), 5000)
        load_dests = set()
        chases = 0
        for _, op, dest, srcs, _, _ in rows(trace):
            if op == Op.LOAD:
                if any(s in load_dests for s in srcs):
                    chases += 1
                load_dests.add(dest)
            elif dest in load_dests:
                load_dests.discard(dest)
        loads = trace.packed().ops.count(Op.LOAD)
        assert chases / loads > 0.15

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(sorted(SPEC2000_PROFILES)))
    def test_sources_are_valid_registers(self, name):
        for _, _, dest, srcs, _, _ in rows(generate_trace(get_profile(name),
                                                         300)):
            for src in srcs:
                assert 0 <= src < 64
            assert -1 <= dest < 64
