"""Experiment-driver tests (small scale; shapes, not magnitudes)."""

import pytest

from repro.experiments import (
    fig6,
    fig7,
    fig8,
    fig9,
    fig10_11,
    fig12_13,
    table1,
    table2,
    table3,
)

SMALL = dict(num_instructions=2500, warmup=2500)
BENCHES = ["twolf", "swim"]


class TestTables:
    def test_table1_gap_structure(self):
        rows = table1.run(memory_fetch_latency=200)
        ctr, cbc = rows
        assert ctr.scheme == "counter+hmac" and ctr.gap > 0
        assert cbc.scheme == "cbc+cbcmac" and cbc.gap == 0
        assert ctr.decryption_latency < cbc.decryption_latency

    def test_table1_render(self):
        text = table1.emit()[0]
        assert "counter+hmac" in text and "gap" in text

    def test_table2_static_rows(self):
        rows = table2.run_static()
        assert rows[0][0] == "scheme"
        assert len(rows) == 6  # header + 5 schemes

    def test_table2_render_without_empirical(self):
        text = table2.emit(empirical=False)[0]
        assert "authen-then-issue" in text

    def test_table2_empirical_agrees(self):
        matrix = table2.run_empirical(
            policies=("authen-then-commit", "commit+fetch"),
            attacks=("pointer-conversion",),
        )
        assert matrix["authen-then-commit"]["pointer-conversion"].leaked
        assert not matrix["commit+fetch"]["pointer-conversion"].leaked

    def test_table3_contains_core_parameters(self):
        text = table3.emit()[0]
        assert "1.0 GHz" in text and "RUU" in text


class TestFig6:
    def test_fetch_beats_issue(self):
        timelines = fig6.run(compute_latency=30)
        assert (timelines["authen-then-fetch"].finish
                <= timelines["authen-then-issue"].finish)

    def test_advantage_bounded_by_compute_latency(self):
        timelines = fig6.run(compute_latency=20)
        advantage = (timelines["authen-then-issue"].finish
                     - timelines["authen-then-fetch"].finish)
        assert 0 <= advantage <= 20 + 1

    def test_render(self):
        assert "cycles earlier" in fig6.emit()[0]


class TestFig7:
    @pytest.fixture(scope="class")
    def panel(self):
        sweep, rows = fig7.run(l2_bytes=256 * 1024, suite="int",
                               benchmarks=BENCHES, **SMALL)
        return sweep, rows

    def test_rows_include_average(self, panel):
        _, rows = panel
        assert rows[-1][0] == "average"

    def test_all_policies_present(self, panel):
        _, rows = panel
        for policy in fig7.FIGURE7_POLICIES:
            assert policy in rows[0][1]

    def test_normalized_values_in_range(self, panel):
        _, rows = panel
        for _, values in rows:
            for policy, value in values.items():
                assert 0.2 < value <= 1.02, (policy, value)

    def test_write_fastest_issue_slowest_among_singles(self, panel):
        _, rows = panel
        avg = rows[-1][1]
        assert avg["authen-then-write"] >= avg["authen-then-commit"]
        assert avg["authen-then-commit"] >= avg["authen-then-issue"] - 0.02


class TestFig8:
    def test_speedups_over_issue(self):
        _, rows = fig8.run(benchmarks=BENCHES, **SMALL)
        avg = rows[-1][1]
        # Relaxed schemes should not be slower than authen-then-issue.
        assert avg["authen-then-write"] >= 0.99
        assert avg["authen-then-commit"] >= 0.99


class TestFig9:
    def test_larger_remap_cache_not_slower(self):
        results = fig9.run(sizes=(16 * 1024, 256 * 1024),
                           benchmarks=["swim", "mcf"], **SMALL)
        avg = fig9.averages(results)
        assert avg[256 * 1024] >= avg[16 * 1024] - 0.02


class TestFig10_11:
    def test_ranking_stable_with_small_ruu(self):
        _, fig10_rows, fig11_rows = fig10_11.run(
            ruu_entries=64, benchmarks=BENCHES, **SMALL)
        avg = fig10_rows[-1][1]
        assert avg["authen-then-write"] >= avg["authen-then-issue"]
        speedups = fig11_rows[-1][1]
        assert speedups["authen-then-commit"] >= 0.98


class TestFig12_13:
    def test_hash_tree_slows_everything(self):
        _, tree_rows, _ = fig12_13.run(benchmarks=BENCHES, **SMALL)
        _, flat_rows = fig7.run(benchmarks=BENCHES, suite="int", **SMALL)
        tree_avg = tree_rows[-1][1]["authen-then-commit"]
        flat_avg = flat_rows[-1][1]["authen-then-commit"]
        assert tree_avg <= flat_avg + 0.02

    def test_ranking_preserved_under_tree(self):
        _, rows, _ = fig12_13.run(benchmarks=BENCHES, **SMALL)
        avg = rows[-1][1]
        assert avg["authen-then-write"] >= avg["authen-then-issue"]
