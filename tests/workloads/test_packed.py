"""Packed (columnar) trace representation tests.

``PackedTrace`` is the only form a trace takes: seven int64 columns
the generators pack once, and the core, the prepass, the native kernel
and the artifact store all read.
"""

from repro.workloads.trace import Op, PackedTrace
from repro.workloads.spec import get_profile
from repro.workloads.tracegen import generate_trace
from tests.traces import row, trace_from_rows


def sample_trace(n=600, seed=11):
    return generate_trace(get_profile("mcf"), n, seed=seed)


class TestPackEquivalence:
    def test_columns_are_parallel(self):
        packed = sample_trace().packed()
        columns = packed.columns()
        lengths = {len(columns[name]) for name in
                   ("pcs", "ops", "dests", "addrs", "mispredicts")}
        assert lengths == {len(packed)}
        assert len(columns["src_off"]) == len(packed) + 1

    def test_packed_is_cached(self):
        trace = sample_trace()
        assert trace.packed() is trace.packed()

    def test_packed_type(self):
        assert isinstance(sample_trace().packed(), PackedTrace)


class TestReplayEquivalence:
    def test_handwritten_instructions_pack(self):
        trace = trace_from_rows([row(0, Op.IALU, 1),
                                 row(4, Op.LOAD, 2, (1,), 0x1000),
                                 row(8, Op.STORE, -1, (2,), 0x2000),
                                 row(12, Op.BRANCH, -1, (2,), -1, True)])
        rows = list(trace.packed().rows())
        assert len(trace) == 4
        assert rows[1][1] == Op.LOAD and rows[1][4] == 0x1000
        assert rows[3][5] is True


class TestInt64Columns:
    """The constructor's int64 encoding: CSR sources, 0/1 flags."""

    def test_csr_sources_and_flag_encoding(self):
        trace = trace_from_rows([row(0, Op.IALU, 1),
                                 row(4, Op.LOAD, 2, (1,), 0x1000),
                                 row(8, Op.STORE, -1, (2, 7), 0x2000),
                                 row(12, Op.BRANCH, -1, (2,), -1, True)])
        columns = trace.packed().columns()
        assert list(columns["src_off"]) == [0, 0, 1, 3, 4]
        assert list(columns["src_val"]) == [1, 2, 7, 2]
        assert list(columns["mispredicts"]) == [0, 0, 0, 1]
        assert list(columns["addrs"]) == [-1, 0x1000, 0x2000, -1]
        assert all(column.typecode == "q" for column in columns.values())

    def test_decodes_back_to_the_rows(self):
        packed = sample_trace().packed()
        columns = packed.columns()
        off, val = columns["src_off"], columns["src_val"]
        assert len(off) == len(packed) + 1
        for index, (pc, op, dest, srcs, addr, mispredict) in enumerate(
                packed.rows()):
            assert columns["pcs"][index] == pc
            assert columns["ops"][index] == op
            assert columns["dests"][index] == dest
            assert tuple(val[off[index]:off[index + 1]]) == srcs
            assert columns["addrs"][index] == addr
            assert columns["mispredicts"][index] == mispredict

    def test_empty_trace(self):
        columns = trace_from_rows([]).packed().columns()
        assert list(columns["src_off"]) == [0]
        assert not columns["src_val"] and not columns["pcs"]
