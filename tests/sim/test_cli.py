"""CLI tests (direct main() invocation, no subprocess)."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "authen-then-commit" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "counter+hmac" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "RUU" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", "--compute-latency", "15"]) == 0
        assert "cycles earlier" in capsys.readouterr().out

    def test_run_single_policy(self, capsys):
        code = main(["run", "gzip", "-n", "1500",
                     "-p", "decrypt-only", "-p", "authen-then-write"])
        assert code == 0
        out = capsys.readouterr().out
        assert "authen-then-write" in out

    def test_run_trace_out_and_emit_json(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "t.json"
        manifest_path = tmp_path / "r.json"
        code = main(["run", "gzip", "-n", "1200",
                     "-p", "authen-then-commit",
                     "--trace-out", str(trace_path),
                     "--emit-json", str(manifest_path)])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "run"
        assert manifest["config"]["seed"] == 2006
        assert manifest["phases"]["measure"] > 0
        assert manifest["stats"]["auth_requests"] > 0
        assert "phase timings" in capsys.readouterr().out

    def test_run_multi_policy_manifest(self, capsys, tmp_path):
        import json

        manifest_path = tmp_path / "set.json"
        code = main(["run", "gzip", "-n", "1200",
                     "-p", "decrypt-only", "-p", "authen-then-commit",
                     "--emit-json", str(manifest_path)])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "run-set"
        assert [run["policy"] for run in manifest["runs"]] == \
            ["decrypt-only", "authen-then-commit"]

    def test_trace_command_renders_timeline(self, capsys):
        code = main(["trace", "gzip", "-n", "1200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decrypt-to-verify windows" in out
        assert "VERIFY_DONE" in out

    def test_trace_command_decrypt_only_has_no_windows(self, capsys):
        code = main(["trace", "gzip", "-n", "800", "-p", "decrypt-only"])
        assert code == 0
        assert "no decrypt-to-verify windows" in capsys.readouterr().out

    def test_attack_blocked_exit_zero(self, capsys):
        code = main(["attack", "pointer-conversion",
                     "-p", "commit+fetch", "--fail-on-leak"])
        assert code == 0
        assert "blocked" in capsys.readouterr().out

    def test_attack_leak_exit_one(self, capsys):
        code = main(["attack", "pointer-conversion",
                     "-p", "authen-then-write", "--fail-on-leak"])
        assert code == 1
        assert "LEAKED" in capsys.readouterr().out

    def test_attack_all(self, capsys):
        assert main(["attack", "all", "-p", "commit+fetch"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 7

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_benchmark_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "doom3"])

    def test_table2_static(self, capsys):
        assert main(["table2", "--static"]) == 0
        assert "authen-then-issue" in capsys.readouterr().out


class TestStoreCli:
    def test_sweep_store_warm_table_identical(self, capsys, tmp_path):
        import os

        from repro.exec.store import STORE_ENV, set_active_store

        argv = ["sweep", "gzip", "-p", "decrypt-only",
                "-p", "authen-then-commit", "-n", "1000",
                "--warmup", "500", "--store", str(tmp_path / "store")]

        def table(out):
            return [line for line in out.splitlines()
                    if line.startswith(("gzip", "average"))]

        try:
            assert main(argv) == 0
            cold = table(capsys.readouterr().out)
            assert main(argv) == 0
            warm = table(capsys.readouterr().out)
        finally:
            set_active_store(None)
            os.environ.pop(STORE_ENV, None)
        assert cold and cold == warm
        store_root = tmp_path / "store"
        assert (store_root / "results").is_dir()
        assert any((store_root / "results").iterdir())

    def test_store_hits_report_store_path(self, capsys, tmp_path):
        """A result served from the store names ``store`` as its path,
        so the report's path tally counts every journaled job."""
        import os

        from repro.exec.store import STORE_ENV, set_active_store
        from repro.obs.report import build_report

        argv = ["sweep", "gzip", "mcf", "-p", "authen-then-commit",
                "-n", "600", "--warmup", "300",
                "--store", str(tmp_path / "store")]
        try:
            assert main(argv + ["--checkpoint",
                                str(tmp_path / "cold.jsonl")]) == 0
            assert main(argv + ["--checkpoint",
                                str(tmp_path / "warm.jsonl")]) == 0
        finally:
            set_active_store(None)
            os.environ.pop(STORE_ENV, None)
        capsys.readouterr()
        cold = build_report([], journal=tmp_path / "cold.jsonl")["paths"]
        warm = build_report([], journal=tmp_path / "warm.jsonl")["paths"]
        jobs = sum(cold.values())
        assert jobs == 4 and "store" not in cold
        assert warm == {"store": jobs}

    def test_store_subcommand_stats_verify_gc(self, capsys, tmp_path):
        import json as jsonlib

        from repro.exec import ArtifactStore
        from repro.workloads.spec import get_profile
        from repro.workloads.tracegen import generate_trace

        store_dir = str(tmp_path / "store")
        store = ArtifactStore(store_dir)
        trace = generate_trace(get_profile("gzip"), 800, seed=1)
        store.save_trace(trace, "gzip", 800, 1)

        assert main(["store", "stats", "--dir", store_dir,
                     "--json"]) == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["tiers"]["traces"]["entries"] == 1

        assert main(["store", "verify", "--dir", store_dir]) == 0
        assert "1 ok" in capsys.readouterr().out

        # gc pins recently-touched entries (concurrent readers may
        # hold them); age the entry past the horizon so it can go
        import os
        import time
        old = time.time() - store.stale_lock_seconds - 1
        for root, _, files in os.walk(store_dir):
            for name in files:
                os.utime(os.path.join(root, name), (old, old))
        assert main(["store", "gc", "--dir", store_dir,
                     "--max-bytes", "0"]) == 0
        assert "evicted 1 entry" in capsys.readouterr().out

    def test_store_verify_flags_corruption(self, capsys, tmp_path):
        from repro.exec import ArtifactStore
        from repro.workloads.spec import get_profile
        from repro.workloads.tracegen import generate_trace

        store_dir = str(tmp_path / "store")
        store = ArtifactStore(store_dir)
        trace = generate_trace(get_profile("gzip"), 800, seed=1)
        store.save_trace(trace, "gzip", 800, 1)
        path = next(p for p, _ in store._entries("traces"))
        with open(path, "r+b") as handle:
            handle.truncate(16)
        assert main(["store", "verify", "--dir", store_dir]) == 1
        assert "1 corrupt" in capsys.readouterr().out
