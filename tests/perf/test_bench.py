"""`repro perf` CLI (the golden-parity check) and store-phase identity."""

import pytest


class TestCli:
    def test_perf_check_exits_clean(self, capsys):
        from repro.cli import main

        assert main(["perf"]) == 0
        out = capsys.readouterr().out
        assert "parity OK" in out
        assert "4 beyond-default cells" in out

    def test_perf_takes_no_options(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["perf", "--check"])

    def test_perf_fails_on_drift(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.perf import bench

        monkeypatch.setattr(bench, "check_goldens",
                            lambda: ["mcf/decrypt-only [legacy]: drift"])
        assert main(["perf"]) == 1
        assert "golden parity FAILED" in capsys.readouterr().err


class TestStoreBench:
    def test_phases_identical_and_warm_hits(self, tmp_path):
        from repro.exec import (ArtifactStore, SerialExecutor, TraceCache,
                                build_jobs, set_active_store)
        from repro.exec.chaos import result_digest

        jobs = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit"],
                          num_instructions=1500, warmup=750)
        store = ArtifactStore(tmp_path / "store")
        previous = set_active_store(None)
        try:
            no_store = SerialExecutor(cache=TraceCache()).run(jobs)
            set_active_store(store)
            cold = SerialExecutor(cache=TraceCache()).run(jobs)
            warm_exec = SerialExecutor(cache=TraceCache())
            warm = warm_exec.run(jobs)
        finally:
            set_active_store(previous)
        for job in jobs:
            want = result_digest(no_store[job])
            assert result_digest(cold[job]) == want
            assert result_digest(warm[job]) == want
        assert sum(outcome.store_hit
                   for outcome in warm_exec.last_outcomes.values()) == \
            len(jobs)
        assert store.stats()["total_bytes"] > 0
