"""Simulation driver tests: runner, sweep, report, config."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.errors import ConfigError, KernelUnavailableError
from repro.obs import MemorySink, Tracer
from repro.sim.metrics import run_with_metrics
from repro.sim.report import render_table, series_rows
from repro.sim.runner import build_simulator, run_benchmark, run_trace
from repro.sim.sweep import PolicySweep, normalized_ipc_table, speedup_over
from repro.workloads.trace import Op
from tests.repro_env import repro_env
from tests.traces import row, trace_from_rows


class TestConfig:
    def test_defaults_match_table3(self):
        config = SimConfig()
        assert config.core.fetch_width == 8
        assert config.core.ruu_entries == 128
        assert config.l1i.size_bytes == 16 * 1024
        assert config.l2.size_bytes == 256 * 1024
        assert config.l2.latency == 4
        assert config.secure.decrypt_latency == 80
        assert config.secure.hmac_latency == 74

    def test_with_l2_size_adjusts_latency(self):
        big = SimConfig().with_l2_size(1024 * 1024)
        assert big.l2.size_bytes == 1024 * 1024
        assert big.l2.latency == 8

    def test_with_ruu(self):
        assert SimConfig().with_ruu(64).core.ruu_entries == 64

    def test_with_secure(self):
        config = SimConfig().with_secure(hash_tree_enabled=True)
        assert config.secure.hash_tree_enabled
        assert not SimConfig().secure.hash_tree_enabled  # original intact

    def test_dram_cycle_conversions(self):
        dram = SimConfig().dram
        assert dram.cas_cycles == 100
        assert dram.rcd_cycles == 35
        assert dram.transfer_cycles(64) == 40

    def test_validation(self):
        from repro.config import CoreConfig

        with pytest.raises(ConfigError):
            CoreConfig(ruu_entries=4)
        with pytest.raises(ConfigError):
            CoreConfig(branch_predictor_accuracy=1.5)


class TestRunner:
    def test_run_benchmark(self):
        result = run_benchmark("gzip", 2000)
        assert result.instructions == 2000
        assert 0 < result.ipc < 8

    def test_policy_object_accepted(self):
        from repro.policies.registry import make_policy

        core, _ = build_simulator(SimConfig(),
                                  make_policy("authen-then-commit"))
        assert core.policy.name == "authen-then-commit"

    def test_runs_are_isolated(self):
        a = run_benchmark("gzip", 2000)
        b = run_benchmark("gzip", 2000)
        assert a.ipc == b.ipc  # fresh state both times


def _pointer_chase():
    """Dependent loads 0x100 apart: every one an L2 miss."""
    return trace_from_rows([row(0x1000 + 4 * i, Op.LOAD, 1, (1,),
                                0x20000 + 0x100 * i) for i in range(64)])


def _line_stream():
    """Loads one 64-byte line apart: a stream the prefetcher detects."""
    return trace_from_rows([row(0x1000 + 4 * i, Op.LOAD, 1, (1,),
                                0x20000 + 0x40 * i) for i in range(64)])


class TestEvaluationPath:
    """The helpers take the executor's path and say which one."""

    def test_counter_mode_takes_kernel(self):
        result = run_trace(_pointer_chase(), SimConfig(),
                           "authen-then-commit")
        assert result.accounting == {"path": "native"}
        assert result.metrics.cycles == result.cycles

    @pytest.mark.parametrize("config", [
        SimConfig().with_secure(encryption_mode="cbc"),
        replace(SimConfig(), prefetch_degree=2),
    ], ids=["cbc", "prefetch"])
    def test_cbc_and_prefetch_take_kernel(self, config):
        trace = _line_stream()
        result = run_trace(trace, config, "authen-then-commit")
        assert result.accounting == {"path": "native"}
        core, _ = build_simulator(config, "authen-then-commit")
        legacy = core.run(trace)
        assert result.cycles == legacy.cycles
        assert result.stats.as_dict() == legacy.stats.as_dict()
        issued = legacy.stats.as_dict()["prefetch_issued"]
        assert (issued > 0) == (config.prefetch_degree > 0)

    def test_traced_run_takes_legacy(self):
        result = run_trace(_pointer_chase(), SimConfig(),
                           "authen-then-commit",
                           tracer=Tracer([MemorySink()]))
        assert result.accounting == {"path": "legacy"}

    def test_paths_agree_on_metrics(self):
        traced, traced_metrics = run_with_metrics(
            _pointer_chase(), policy="commit+fetch",
            tracer=Tracer([MemorySink()]))
        plain, plain_metrics = run_with_metrics(_pointer_chase(),
                                                policy="commit+fetch")
        assert traced.accounting["path"] == "legacy"
        assert plain.cycles == traced.cycles
        assert plain_metrics.as_dict() == traced_metrics.as_dict()

    def test_only_the_traced_path_loads_the_legacy_model(self):
        """An untraced run never imports the legacy memory hierarchy; a
        traced one imports it and takes the legacy path."""
        probe = (
            "import sys\n"
            "from repro.obs import MemorySink, Tracer\n"
            "from repro.sim.runner import run_benchmark\n"
            "def run(**kw):\n"
            "    result = run_benchmark('gzip', 600, **kw)\n"
            "    return (result.accounting['path'],\n"
            "            'repro.cpu.hierarchy' in sys.modules)\n"
            "print(run(), run(tracer=Tracer([MemorySink()])))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120,
                              env=repro_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "('native', False) ('legacy', True)"

    def test_required_kernel_never_falls_back(self, no_compiler):
        with pytest.raises(KernelUnavailableError, match="compile `false"):
            run_trace(_pointer_chase(), SimConfig(), "authen-then-commit")


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return PolicySweep(
            ["gzip", "twolf"],
            ["authen-then-issue", "authen-then-write"],
            num_instructions=3000,
            warmup=2000,
        ).run()

    def test_results_populated(self, sweep):
        assert ("gzip", "authen-then-issue") in sweep.results
        assert ("twolf", "decrypt-only") in sweep.results  # baseline added

    def test_normalized_le_one(self, sweep):
        for benchmark in sweep.benchmarks:
            for policy in sweep.policies:
                assert 0 < sweep.normalized(benchmark, policy) <= 1.001

    def test_write_beats_issue(self, sweep):
        assert (sweep.average_normalized("authen-then-write")
                > sweep.average_normalized("authen-then-issue"))

    def test_table_has_average_row(self, sweep):
        rows = normalized_ipc_table(sweep)
        assert rows[-1][0] == "average"
        assert len(rows) == 3

    def test_speedup_over_reference(self, sweep):
        rows = speedup_over(sweep, "authen-then-issue",
                            ["authen-then-write"])
        for _, values in rows:
            assert values["authen-then-write"] >= 0.99

    def test_shared_trace_across_policies(self, sweep):
        a = sweep.results[("gzip", "authen-then-issue")]
        b = sweep.results[("gzip", "authen-then-write")]
        assert a.instructions == b.instructions


class TestReport:
    def test_render_alignment(self):
        text = render_table(["name", "value"],
                            [["a", 1.0], ["longer", 0.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) <= 2

    def test_float_formatting(self):
        text = render_table(["x"], [[0.123456]], float_format="%.2f")
        assert "0.12" in text

    def test_numeric_columns_right_aligned(self):
        text = render_table(["benchmark", "cycles"],
                            [["gzip", 12], ["a", 1234567]])
        rows = text.splitlines()[2:]
        assert rows[0] == "gzip            12"
        assert rows[1] == "a          1234567"

    def test_text_columns_stay_left_aligned(self):
        text = render_table(["name", "tag"], [["a", "x"], ["bb", "yy"]])
        assert text.splitlines()[2] == "a     x  "

    def test_series_rows(self):
        rows = series_rows([("b1", {"p": 0.5})], ["p"])
        assert rows == [["b1", 0.5]]
