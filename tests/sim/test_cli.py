"""CLI tests (direct main() invocation; a subprocess where the test
needs a real stdout)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from tests.repro_env import repro_env


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

    def test_traced_run_never_served_from_store(self, capsys, tmp_path):
        """A warm result tier must not swallow a traced run's events."""
        import json
        import os

        from repro.exec.store import STORE_ENV, set_active_store

        store_dir = str(tmp_path / "store")
        counts = []
        try:
            for attempt in (1, 2):
                trace_path = tmp_path / ("t%d.json" % attempt)
                assert main(["run", "gzip", "-p", "authen-then-commit",
                             "-n", "2000", "--warmup", "500",
                             "--store", store_dir,
                             "--trace-out", str(trace_path)]) == 0
                counts.append(len(json.loads(
                    trace_path.read_text())["traceEvents"]))
        finally:
            set_active_store(None)
            os.environ.pop(STORE_ENV, None)
        assert counts[0] == counts[1] > 1000
        # ... and its result is saved once, not once per run.
        capsys.readouterr()
        assert main(["store", "stats", "--dir", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["tiers"]["results"]["records"] == 1

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


class TestGcSize:
    @pytest.mark.parametrize("text", ["inf", "1e400", "-inf", "nan",
                                      "-1G", "-1", "-0.5K", "1x", ""])
    def test_invalid_max_bytes_exits_2(self, capsys, tmp_path, text):
        with pytest.raises(SystemExit) as info:
            main(["store", "gc", "--dir", str(tmp_path / "store"),
                  "--max-bytes", text])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--max-bytes" in err and "Traceback" not in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("text, size", [
        ("0", 0), ("512", 512), ("1.5K", 1536), ("2m", 2 * 1024 ** 2),
        (" 1G ", 1024 ** 3)])
    def test_valid_max_bytes(self, text, size):
        from repro.cli import _parse_size

        assert _parse_size(text) == size


class TestNoCompiler:
    """The kernel is required: without a compiler a command fails with
    the compile error on one ``error:`` line, never a traceback."""

    def test_run_fails_with_one_error_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "gzip", "-n", "2000"],
            capture_output=True, timeout=120, env=repro_env(
                CC="false", REPRO_NATIVE_CACHE=str(tmp_path / "kernel")))
        assert proc.returncode != 0
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("error: ")
        assert "compile `false" in line
        assert not proc.stdout

    def test_perf_fails_with_one_error_line(self, capsys, no_compiler):
        assert main(["perf"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "compile `false" in line


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self):
        # The reader end is closed before the child writes a byte, so
        # its first write to stdout fails with EPIPE, like ``| head``.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "gzip",
                 "-n", "600"],
                stdout=write_end, stderr=subprocess.PIPE, env=repro_env(),
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr


def test_importing_the_cli_loads_neither_the_kernel_nor_ctypes():
    """``import repro, repro.cli`` stays cheap: the native kernel and
    ``ctypes`` load on the first simulation, not on import."""
    probe = ("import sys, repro, repro.cli; "
             "print([m for m in ('repro.cpu.native', 'ctypes') "
             "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env=repro_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
