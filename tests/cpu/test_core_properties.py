"""Property-based tests of the timestamp core over random traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.sim.runner import build_simulator
from repro.workloads.trace import Op
from tests.traces import row, trace_from_rows


@st.composite
def random_traces(draw, max_len=120):
    """Arbitrary well-formed traces (valid regs, aligned pcs/addresses)."""
    length = draw(st.integers(1, max_len))
    out = []
    pc = 0
    for _ in range(length):
        op = draw(st.sampled_from(
            [Op.IALU, Op.IALU, Op.IALU, Op.IMUL, Op.FPU, Op.LOAD,
             Op.STORE, Op.BRANCH, Op.JUMP]))
        dest = draw(st.integers(-1, 63)) if op not in (Op.STORE,
                                                       Op.BRANCH,
                                                       Op.JUMP) else -1
        nsrcs = draw(st.integers(0, 2))
        srcs = tuple(draw(st.integers(0, 63)) for _ in range(nsrcs))
        addr = -1
        if op in (Op.LOAD, Op.STORE):
            addr = draw(st.integers(0, 1 << 22)) & ~3
        mispredict = op == Op.BRANCH and draw(st.booleans())
        out.append(row(pc, op, dest, srcs, addr, mispredict))
        pc = (pc + 4) % 4096
    return trace_from_rows(out, name="random")


def run_legacy(trace, config, policy):
    """The legacy core itself, which these properties pin as the oracle."""
    return build_simulator(config, policy)[0].run(trace)


POLICIES = ("decrypt-only", "authen-then-issue", "authen-then-commit",
            "authen-then-write", "commit+fetch")


class TestCoreProperties:
    @settings(max_examples=25, deadline=None)
    @given(trace=random_traces())
    def test_any_trace_terminates_with_positive_cycles(self, trace):
        result = run_legacy(trace, SimConfig(), "authen-then-commit")
        assert result.cycles > 0
        assert result.instructions == len(trace)

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_baseline_dominates_every_policy(self, trace):
        base = run_legacy(trace, SimConfig(), "decrypt-only").cycles
        for policy in POLICIES[1:]:
            gated = run_legacy(trace, SimConfig(), policy).cycles
            assert gated >= base, policy

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_issue_gating_dominates_commit_gating(self, trace):
        issue = run_legacy(trace, SimConfig(), "authen-then-issue").cycles
        commit = run_legacy(trace, SimConfig(), "authen-then-commit").cycles
        assert issue >= commit

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_determinism(self, trace):
        a = run_legacy(trace, SimConfig(), "commit+fetch")
        b = run_legacy(trace, SimConfig(), "commit+fetch")
        assert a.cycles == b.cycles

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces(max_len=60))
    def test_ipc_bounded_by_width(self, trace):
        result = run_legacy(trace, SimConfig(), "decrypt-only")
        assert result.ipc <= SimConfig().core.commit_width
