"""Execution-driven trace capture tests (functional -> timing bridge)."""

import pytest

from repro import SimConfig, load_program, make_policy, run_trace
from repro.func.machine import SecureMachine
from repro.func import programs
from repro.workloads.capture import capture_trace
from repro.workloads.trace import Op


def captured(source, data=None, max_steps=5000):
    machine = SecureMachine(make_policy("decrypt-only"))
    load_program(machine, source, data=data)
    return machine, capture_trace(machine, max_steps)


class TestCapture:
    def test_captures_whole_program(self):
        machine, trace = captured(programs.FIBONACCI)
        assert machine.io_log == [programs.FIBONACCI_EXPECTED]
        assert len(trace) == machine.steps

    def test_ops_classified(self):
        _, trace = captured(programs.ARRAY_SUM,
                            data=programs.ARRAY_SUM_DATA)
        mix = trace.op_mix()
        # Loop body: 1 load per 5 instructions.
        assert mix["load"] == pytest.approx(0.2, abs=0.02)
        assert "branch" in mix and "ialu" in mix

    def test_addresses_recorded(self):
        _, trace = captured(programs.ARRAY_SUM,
                            data=programs.ARRAY_SUM_DATA)
        loads = [addr for _, op, _, _, addr, _ in trace.packed().rows()
                 if op == Op.LOAD]
        assert loads[0] == 0x2000
        assert loads[1] == 0x2004
        assert trace.footprint_bytes >= 64 * 4

    def test_branch_annotation(self):
        _, trace = captured(programs.FIBONACCI)
        branches = [mispredict
                    for _, op, _, _, _, mispredict in trace.packed().rows()
                    if op == Op.BRANCH]
        assert branches, "loop must contain branches"
        # The loop branch becomes predictable; only early iterations and
        # the final fall-through mispredict.
        mispredicts = sum(branches)
        assert mispredicts < len(branches)

    def test_dataflow_registers_preserved(self):
        _, trace = captured(programs.FIBONACCI)
        adds = [dest for _, op, dest, srcs, _, _ in trace.packed().rows()
                if op == Op.IALU and len(srcs) == 2]
        assert any(dest >= 0 for dest in adds)

    def test_max_steps_truncates(self):
        machine = SecureMachine(make_policy("decrypt-only"))
        load_program(machine, "loop:\n jmp loop")
        trace = capture_trace(machine, max_steps=100)
        assert len(trace) == 100

    def test_fault_ends_capture_cleanly(self):
        machine = SecureMachine(make_policy("authen-then-issue"))
        load_program(machine, programs.FIBONACCI)
        machine.mem.flip_bits(0, b"\x01")
        trace = capture_trace(machine, max_steps=100)
        assert len(trace) == 0  # tamper caught before any commit


class TestReplayOnTimingModel:
    @pytest.mark.parametrize("source,data,expected", [
        (programs.ARRAY_SUM, programs.ARRAY_SUM_DATA,
         programs.ARRAY_SUM_EXPECTED),
        (programs.LIST_WALK, None, programs.LIST_WALK_EXPECTED),
        (programs.STORE_RELOAD, None, programs.STORE_RELOAD_EXPECTED),
    ])
    def test_captured_traces_replay(self, source, data, expected):
        if source is programs.LIST_WALK:
            data = programs.list_walk_data()
        machine, trace = captured(source, data=data)
        assert machine.io_log == [expected]
        result = run_trace(trace, SimConfig(), "authen-then-commit")
        assert result.cycles > 0
        assert 0 < result.ipc < 8

    def test_policies_order_on_captured_trace(self):
        """The pointer-chasing list walk punishes fetch gating more than
        the predictable array sum does."""
        machine, trace = captured(programs.LIST_WALK,
                                  data=programs.list_walk_data(nodes=64,
                                                               stride=0x100))
        base = run_trace(trace, SimConfig(), "decrypt-only").ipc
        issue = run_trace(trace, SimConfig(), "authen-then-issue").ipc
        write = run_trace(trace, SimConfig(), "authen-then-write").ipc
        assert issue <= write <= base * 1.001
