"""Timestamp-core tests: pipeline constraints and policy effects."""

import pytest

from repro.config import SimConfig
from repro.sim.runner import build_simulator, run_trace
from repro.workloads.spec import get_profile
from repro.workloads.trace import Op
from repro.workloads.tracegen import generate_trace
from tests.traces import row, trace_from_rows


def alu(pc, dest, srcs=()):
    return row(pc, Op.IALU, dest, srcs)


def load(pc, dest, addr, srcs=()):
    return row(pc, Op.LOAD, dest, srcs, addr)


def run(insts, policy="decrypt-only", config=None):
    return run_trace(trace_from_rows(insts), config or SimConfig(), policy)


class TestBasicPipeline:
    def test_empty_trace(self):
        result = run([])
        assert result.cycles == 0
        assert result.ipc == 0.0

    def test_independent_alus_superscalar(self):
        """8-wide core retires independent ALU work at > 1 IPC (code kept
        inside two I-lines so only two cold I-misses occur)."""
        insts = [alu(4 * i % 64, 1 + (i % 32)) for i in range(2000)]
        result = run(insts)
        assert result.ipc > 2.0

    def test_serial_chain_is_one_ipc_max(self):
        insts = [alu(4 * i % 64, 1, (1,)) for i in range(2000)]
        result = run(insts)
        assert result.ipc <= 1.05

    def test_mul_latency_slows_chain(self):
        chain = [row(4 * i, Op.IMUL, 1, (1,)) for i in range(500)]
        fast = run([alu(4 * i, 1, (1,)) for i in range(500)])
        slow = run(chain)
        assert slow.ipc < fast.ipc

    def test_mispredicts_cost_cycles(self):
        clean = [row(4 * i, Op.BRANCH, -1, (1,)) for i in range(500)]
        dirty = [row(4 * i, Op.BRANCH, -1, (1,), -1, True)
                 for i in range(500)]
        assert run(dirty).ipc < run(clean).ipc

    def test_load_miss_slower_than_hit(self):
        # Same line repeatedly vs a new line each time.
        hits = [load(0, 1, 0x1000) for _ in range(200)]
        misses = [load(0, 1, 0x1000 + 4096 * i) for i in range(200)]
        assert run(misses).ipc < run(hits).ipc

    def test_result_metadata(self):
        result = run([alu(0, 1)] * 10, policy="authen-then-commit")
        assert result.policy_name == "authen-then-commit"
        assert result.instructions == 10
        assert result.cycles > 0


class TestWindowConstraints:
    def test_smaller_ruu_hurts_memory_workload(self):
        trace = generate_trace(get_profile("swim"), 6000)
        big = run_trace(trace, SimConfig(), "decrypt-only")
        small = run_trace(trace, SimConfig().with_ruu(16), "decrypt-only")
        assert small.ipc < big.ipc

    def test_warmup_excluded_from_counts(self):
        trace = generate_trace(get_profile("gzip"), 4000)
        core, _ = build_simulator(SimConfig(), "decrypt-only")
        result = core.run(trace, warmup=1000)
        assert result.instructions == 3000

    def test_warmup_improves_measured_ipc(self):
        trace = generate_trace(get_profile("gzip"), 8000)
        cold = run_trace(trace, SimConfig(), "decrypt-only")
        core, _ = build_simulator(SimConfig(), "decrypt-only")
        warm = core.run(trace, warmup=4000)
        assert warm.ipc > cold.ipc


class TestPolicyOrdering:
    """The paper's qualitative results as invariants of the model."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = generate_trace(get_profile("twolf"), 12_000)
        out = {}
        for policy in ("decrypt-only", "authen-then-issue",
                       "authen-then-write", "authen-then-commit",
                       "authen-then-fetch", "commit+fetch"):
            core, _ = build_simulator(SimConfig(), policy)
            out[policy] = core.run(trace, warmup=6000).ipc
        return out

    def test_baseline_is_fastest(self, results):
        base = results["decrypt-only"]
        for policy, ipc in results.items():
            assert ipc <= base * 1.001, policy

    def test_issue_is_slowest_single_scheme(self, results):
        issue = results["authen-then-issue"]
        for policy in ("authen-then-write", "authen-then-commit",
                       "authen-then-fetch"):
            assert results[policy] >= issue, policy

    def test_write_is_fastest_scheme(self, results):
        write = results["authen-then-write"]
        for policy in ("authen-then-issue", "authen-then-commit",
                       "authen-then-fetch", "commit+fetch"):
            assert write >= results[policy], policy

    def test_combination_not_faster_than_parts(self, results):
        combo = results["commit+fetch"]
        assert combo <= results["authen-then-commit"] * 1.001
        assert combo <= results["authen-then-fetch"] * 1.001

    def test_overheads_are_bounded(self, results):
        """No scheme loses more than half the baseline on this workload."""
        base = results["decrypt-only"]
        for policy, ipc in results.items():
            assert ipc > 0.5 * base, policy


class TestStallAccounting:
    def test_issue_policy_reports_issue_stalls(self):
        trace = generate_trace(get_profile("art"), 4000)
        core, _ = build_simulator(SimConfig(), "authen-then-issue")
        result = core.run(trace)
        assert result.stats["auth_issue_stall_cycles"].value > 0
        assert result.stats["auth_commit_stall_cycles"].value == 0

    def test_commit_policy_reports_commit_stalls(self):
        trace = generate_trace(get_profile("art"), 4000)
        core, _ = build_simulator(SimConfig(), "authen-then-commit")
        result = core.run(trace)
        assert result.stats["auth_commit_stall_cycles"].value > 0
        assert result.stats["auth_issue_stall_cycles"].value == 0

    def test_baseline_reports_no_auth_stalls(self):
        trace = generate_trace(get_profile("art"), 4000)
        core, _ = build_simulator(SimConfig(), "decrypt-only")
        result = core.run(trace)
        assert result.stats["auth_issue_stall_cycles"].value == 0
        assert result.stats["auth_commit_stall_cycles"].value == 0


class TestBranchPredictor:
    def test_bimodal_learns_bias(self):
        from repro.cpu.branch import BimodalPredictor

        predictor = BimodalPredictor(table_entries=64)
        for _ in range(100):
            predictor.predict_update(0x40, True, target=0x100)
        assert predictor.accuracy() > 0.9

    def test_alternating_pattern_defeats_bimodal(self):
        from repro.cpu.branch import BimodalPredictor

        predictor = BimodalPredictor(table_entries=64)
        for i in range(200):
            predictor.predict_update(0x40, i % 2 == 0, target=0x100)
        assert predictor.accuracy() < 0.8

    def test_power_of_two_enforced(self):
        from repro.cpu.branch import BimodalPredictor

        with pytest.raises(ValueError):
            BimodalPredictor(table_entries=100)

    def test_btb_miss_counts_as_mispredict(self):
        from repro.cpu.branch import BimodalPredictor

        predictor = BimodalPredictor()
        # Train direction to taken without target knowledge churn.
        predictor.predict_update(0x80, True, target=0x200)
        wrong = predictor.predict_update(0x80, True, target=0x999)
        assert wrong  # stale BTB target
