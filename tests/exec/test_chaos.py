"""Chaos-harness tests: seeded schedules, journal corruption, recovery."""

import json
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.exec import SerialExecutor, build_jobs
from repro.exec.chaos import (
    ALL_FAULTS,
    FAULT_HANG,
    FAULT_JOB_EXCEPTION,
    FAULT_JOURNAL_BITFLIP,
    FAULT_JOURNAL_TRUNCATE,
    FAULT_WORKER_KILL,
    ChaosPlan,
    InjectedFault,
    build_plan,
    corrupt_journal,
    result_digest,
    run_campaign,
)
from repro.sim.checkpoint import JobJournal
from tests.repro_env import repro_env

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)


class TestBuildPlan:
    def test_same_seed_same_schedule(self):
        one = build_plan(JOBS, seed=5)
        two = build_plan(JOBS, seed=5)
        assert one.job_faults == two.job_faults
        assert one.journal_faults == two.journal_faults

    def test_different_seed_can_differ(self):
        schedules = {frozenset(build_plan(JOBS, seed=s).job_faults.items())
                     for s in range(8)}
        assert len(schedules) > 1

    def test_each_job_fault_hits_a_distinct_job(self):
        plan = build_plan(JOBS, seed=0)
        assert sorted(plan.job_faults.values()) == sorted(
            [FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG])
        assert len(set(plan.job_faults)) == 3

    def test_unknown_fault_rejected(self):
        with pytest.raises(ReproError):
            build_plan(JOBS, seed=0, faults=("disk-on-fire",))

    def test_fault_subset_respected(self):
        plan = build_plan(JOBS, seed=0,
                          faults=(FAULT_JOB_EXCEPTION,
                                  FAULT_JOURNAL_TRUNCATE))
        assert set(plan.job_faults.values()) == {FAULT_JOB_EXCEPTION}
        assert plan.journal_faults == (FAULT_JOURNAL_TRUNCATE,)

    def test_faults_fire_on_first_attempt_only(self):
        plan = ChaosPlan(0, {JOBS[0].job_id: FAULT_JOB_EXCEPTION})
        with pytest.raises(InjectedFault):
            plan(JOBS[0], 1)
        assert plan(JOBS[0], 2) is None
        assert plan(JOBS[1], 1) is None

    def test_worker_kill_downgrades_in_driver_process(self):
        plan = ChaosPlan(0, {JOBS[0].job_id: FAULT_WORKER_KILL})
        with pytest.raises(InjectedFault):  # must NOT SIGKILL this test
            plan(JOBS[0], 1)


class TestCorruptJournal:
    @pytest.fixture
    def journal_path(self, tmp_path):
        path = tmp_path / "chaos.journal"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        return path

    def test_truncate_tears_final_record(self, journal_path):
        before = journal_path.read_text().splitlines()
        applied = corrupt_journal(journal_path,
                                  (FAULT_JOURNAL_TRUNCATE,), seed=0)
        assert any("truncated" in note for note in applied)
        after = journal_path.read_text().splitlines()
        assert len(after) == len(before)
        assert after[-1] == before[-1][:len(before[-1]) // 2]
        journal = JobJournal(journal_path)
        assert journal.quarantined_lines == 1
        assert len(journal) == len(JOBS) - 1

    def test_bitflip_is_caught_by_crc(self, journal_path):
        applied = corrupt_journal(journal_path,
                                  (FAULT_JOURNAL_BITFLIP,), seed=0)
        assert any("flipped" in note for note in applied)
        journal = JobJournal(journal_path)
        assert journal.quarantined_lines == 1
        assert len(journal) == len(JOBS) - 1

    def test_missing_journal_is_a_noop(self, tmp_path):
        assert corrupt_journal(tmp_path / "nope", ALL_FAULTS, 0) == []


class TestRunChaos:
    def test_serial_exception_campaign_converges(self, tmp_path):
        report = run_campaign("sweep", num_instructions=600, warmup=300,
                              seed=1, faults=(FAULT_JOB_EXCEPTION,
                                              FAULT_JOURNAL_TRUNCATE),
                              workers=1, workdir=str(tmp_path))
        assert report.identical
        assert report.failures == []
        assert FAULT_JOB_EXCEPTION in report.injected.values()
        assert report.counters["quarantined"] == 1
        # The injected job took >1 attempt; everyone else took 1.
        assert any(n > 1 for n in report.attempts.values())
        assert report.as_dict()["stats_digest"] == report.stats_digest
        assert report.as_dict()["kind"] == "chaos"
        assert report.gates == {"fault_fired": True}
        assert "bit-identical" in report.render()

    def test_full_campaign_with_worker_kills_converges(self, tmp_path):
        report = run_campaign("sweep", num_instructions=600, warmup=300,
                              seed=0, faults=ALL_FAULTS, workers=2,
                              hang_seconds=1.0, timeout=0.5,
                              workdir=str(tmp_path))
        assert report.identical
        assert report.failures == []
        assert sorted(report.injected.values()) == sorted(
            [FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG])
        assert report.counters["pool_rebuilds"] >= 1  # the kill broke it
        assert report.counters["retry_events"] >= 1
        assert report.counters["quarantined"] >= 1
        assert len([note for note in report.notes
                    if note.startswith("journal: ")]) == 2
        assert report.gates["fault_fired"]

    def test_campaign_is_reproducible(self, tmp_path):
        kwargs = dict(num_instructions=600, warmup=300, seed=3,
                      faults=(FAULT_JOB_EXCEPTION,), workers=1)
        one = run_campaign("sweep", workdir=str(tmp_path / "a"), **kwargs)
        two = run_campaign("sweep", workdir=str(tmp_path / "b"), **kwargs)
        assert one.stats_digest == two.stats_digest
        assert one.injected == two.injected
        assert one.attempts == two.attempts


class TestVacuousFaults:
    """A campaign whose requested faults never fired must not pass."""

    def test_more_job_faults_than_jobs_rejected(self):
        with pytest.raises(ReproError, match="only 1 job"):
            build_plan(JOBS[:1], seed=0)

    def test_cli_single_job_grid_exits_two(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--benchmark", "gzip", "-p", "decrypt-only",
                     "-j", "1", "-n", "600", "--warmup", "300"])
        assert code == 2
        assert "each job fault needs a job of its own" in \
            capsys.readouterr().err

    def test_infra_faults_that_cannot_fire_fail_the_gate(self, capsys,
                                                         tmp_path):
        from repro.cli import main

        # A serial backend has no pool to break, and one job never
        # reaches the journal's second append: neither fault fires.
        code = main(["chaos", "--benchmark", "gzip", "-p", "decrypt-only",
                     "--faults", "job-exception,pool-init-failure,"
                                 "journal-enospc",
                     "-j", "1", "-n", "600", "--warmup", "300",
                     "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "never fired: pool-init-failure, journal-enospc" in out
        assert "fault_fired FAILED" in out

    def test_figures_target_is_a_job_fig8_runs(self, tmp_path):
        report = run_campaign("figures", benchmarks=("gzip",),
                              num_instructions=600, warmup=300, workers=1,
                              workdir=str(tmp_path))
        assert report.identical
        (target,) = report.injected
        assert target in report.attempts   # one of fig8's own jobs
        assert report.attempts[target] > 1
        assert report.total_jobs == len(report.attempts) > 0

    def test_figures_fault_that_never_fires_fails(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(ChaosPlan, "__call__",
                            lambda self, job, attempt: None)
        report = run_campaign("figures", benchmarks=("gzip",),
                              num_instructions=600, warmup=300, workers=1,
                              workdir=str(tmp_path))
        assert report.mismatches == []
        assert report.gates == {"fault_fired": False}
        assert not report.identical


class TestResultDigest:
    def test_digest_tracks_result_content(self):
        results = SerialExecutor().run(JOBS[:2])
        a, b = (results[job] for job in JOBS[:2])
        assert result_digest(a) == result_digest(a)
        assert result_digest(a) != result_digest(b)


class TestChaosCli:
    def test_cli_reports_and_exits_zero(self, capsys, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(["chaos", "--seed", "0",
                     "--faults", "job-exception,journal-bitflip",
                     "-n", "600", "--warmup", "300", "-j", "1",
                     "--workdir", str(tmp_path),
                     "--emit-json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        payload = json.loads(report_path.read_text())
        assert payload["identical"] is True
        assert payload["campaign"] == "sweep"
        assert sorted(payload["injected"].values()) == ["job-exception"]
        assert payload["notes"][0].startswith("journal: flipped")

    def test_cli_rejects_unknown_fault(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--faults", "gremlins"]) == 2
        assert "unknown fault" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--campaign", "store", "--faults", "worker-kill"],
        ["--campaign", "figures", "-p", "decrypt-only"],
        ["--campaign", "dist", "--benchmark", "gzip"],
        ["--faults", ""],
    ])
    def test_cli_rejects_invalid_combinations(self, capsys, argv):
        from repro.cli import main

        assert main(["chaos"] + argv) == 2
        assert "error: campaign" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--group", "--store", "--dist"])
    def test_old_mode_flags_are_gone(self, capsys, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["chaos", flag])
        assert exc.value.code == 2


@pytest.mark.parametrize("campaign,argv", [
    ("sweep", ["--faults", "job-exception,journal-truncate", "-j", "1"]),
    ("group", ["--benchmark", "gzip", "-j", "1"]),
    ("figures", ["--benchmark", "gzip", "-j", "1"]),
    ("store", ["--benchmark", "gzip"]),
    ("dist", ["--benchmark", "gzip", "--benchmark", "mcf",
              "-p", "decrypt-only", "-p", "authen-then-commit"]),
])
def test_every_campaign_report_feeds_repro_report(capsys, tmp_path,
                                                  campaign, argv):
    from repro.cli import main

    report_path = tmp_path / "report.json"
    assert main(["chaos", "--campaign", campaign, "-n", "600",
                 "--warmup", "300", "--workdir", str(tmp_path / "work"),
                 "--emit-json", str(report_path)] + argv) == 0
    capsys.readouterr()
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "chaos campaign %s: bit-identical" % campaign in out
    assert "fault_fired ok" in out


class TestInfraFaults:
    def test_fault_for_matches_benchmark_policy_key(self):
        plan = ChaosPlan(0, {"gzip/decrypt-only": FAULT_JOB_EXCEPTION})
        target = next(j for j in JOBS if j.policy == "decrypt-only")
        other = next(j for j in JOBS if j.policy != "decrypt-only")
        assert plan.fault_for(target, 1) == FAULT_JOB_EXCEPTION
        assert plan.fault_for(target, 2) is None
        assert plan.fault_for(other, 1) is None

    @pytest.mark.parametrize("workers", (1, 2))
    def test_init_fault_fires_once_per_first_pool_worker(self, tmp_path,
                                                         workers):
        """Every worker of the first pool raises, so even a one-group
        grid cannot finish there; the rebuilt pool heals."""
        from repro.exec.chaos import FAULT_POOL_INIT

        plan = ChaosPlan(0, {}, infra_faults=(FAULT_POOL_INIT,))
        plan.arm_init_fault(str(tmp_path / "sentinel"), workers)
        for _ in range(workers):
            with pytest.raises(InjectedFault):
                plan.init_fault()
        plan.init_fault()  # every slot taken: the rebuilt pool heals

    def test_unarmed_init_fault_is_a_noop(self):
        from repro.exec.chaos import FAULT_POOL_INIT

        ChaosPlan(0, {}).init_fault()
        ChaosPlan(0, {}, infra_faults=(FAULT_POOL_INIT,)).init_fault()

    def test_enospc_journal_degrades_not_aborts(self, tmp_path):
        from repro.exec.chaos import _enospc_journal
        from repro.obs import MemorySink, Tracer
        from repro.obs.events import JOURNAL_DEGRADED

        sink = MemorySink()
        journal = _enospc_journal(str(tmp_path / "j.jsonl"), fail_at=2)
        executor = SerialExecutor()
        results = executor.run(JOBS, journal=journal,
                               tracer=Tracer([sink]))
        # Every job completed in memory despite the dead journal...
        assert set(results) == set(JOBS)
        degraded = [e for e in sink.events
                    if e.kind == JOURNAL_DEGRADED]
        assert len(degraded) == 1
        assert "ENOSPC" in degraded[0].args["error"].upper() or \
            "28" in degraded[0].args["error"]
        # ...and only the pre-failure record made it to disk.
        assert len(JobJournal(str(tmp_path / "j.jsonl"))) == 1

    def test_pool_init_campaign_converges(self, tmp_path):
        from repro.exec.chaos import FAULT_POOL_INIT

        report = run_campaign("sweep", policies=("decrypt-only",
                                                 "authen-then-commit"),
                              num_instructions=600, warmup=300, seed=0,
                              faults=(FAULT_POOL_INIT,), workers=2,
                              workdir=str(tmp_path))
        assert report.identical
        assert report.counters["pool_rebuilds"] >= 1
        assert report.failures == []

    def test_injected_initializer_fault_prints_no_traceback(self, capfd):
        """A healed campaign's stderr is clean.  Run as a subprocess:
        under pytest, a worker's log records go to the capture handler
        it forked with, never to its stderr."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--campaign", "sweep",
             "--benchmark", "gzip", "-n", "600", "--warmup", "300",
             "--faults", "pool-init-failure"],
            timeout=300, env=repro_env())
        out, err = capfd.readouterr()
        assert proc.returncode == 0
        assert "bit-identical" in out
        assert "Exception in initializer" not in err

    def test_other_initializer_exceptions_are_still_logged(self, capfd):
        script = (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.exec.chaos import ChaosPlan, _install_in_worker\n"
            "def init(plan):\n"
            "    _install_in_worker(plan)\n"
            "    raise RuntimeError('a real initializer bug')\n"
            "pool = ProcessPoolExecutor(\n"
            "    1, multiprocessing.get_context('fork'), initializer=init,\n"
            "    initargs=(ChaosPlan(0, {}),))\n"
            "try:\n"
            "    pool.submit(abs, -1).result(timeout=60)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n")
        proc = subprocess.run([sys.executable, "-c", script], timeout=120,
                              env=repro_env())
        out, err = capfd.readouterr()
        assert proc.returncode == 0
        assert out.strip() == "BrokenProcessPool"
        assert "Exception in initializer:" in err
        assert "RuntimeError: a real initializer bug" in err

    def test_enospc_campaign_converges(self, tmp_path):
        from repro.exec.chaos import FAULT_JOURNAL_ENOSPC

        report = run_campaign("sweep", policies=("decrypt-only",
                                                 "authen-then-commit"),
                              num_instructions=600, warmup=300, seed=0,
                              faults=(FAULT_JOURNAL_ENOSPC,), workers=1,
                              workdir=str(tmp_path))
        assert report.identical
        assert report.counters["journal_degraded_events"] == 1
        # The journal died after one record: phase 3 re-simulates the
        # lost jobs instead of resuming them.
        assert report.counters["reexecuted"] >= 1
        assert "journal degraded" in report.render()


class TestFiguresChaos:
    def test_worker_kill_yields_identical_artifacts(self, tmp_path):
        report = run_campaign("figures", benchmarks=("gzip",),
                              num_instructions=600, warmup=300,
                              workers=2, workdir=str(tmp_path))
        assert report.identical
        assert report.failures == []
        assert report.mismatches == []
        assert FAULT_WORKER_KILL in report.injected.values()
        assert report.counters["pool_rebuilds"] >= 1
        assert "bit-identical" in report.render()

    def test_cli_figures_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--campaign", "figures",
                     "--benchmark", "gzip",
                     "-n", "600", "--warmup", "300",
                     "--workdir", str(tmp_path)])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out


class TestGroupChaos:
    def test_serial_mid_group_campaign_converges(self, tmp_path):
        report = run_campaign("group", benchmarks=("gzip",),
                              num_instructions=600, warmup=300,
                              seed=0, workers=1, workdir=str(tmp_path))
        assert report.identical
        assert report.gates == {"fault_fired": True, "resume_exact": True}
        assert report.failures == []
        assert report.mismatches == []
        # The kill landed mid-group: at least one member was journaled
        # before the fault, and resume re-ran only the rest.
        assert report.counters["journaled_before_kill"] == 1
        assert report.counters["resumed"] == 1
        assert (report.counters["reexecuted"]
                == report.total_jobs - report.counters["resumed"])
        assert "bit-identical" in report.render()

    def test_pool_worker_kill_campaign_converges(self, tmp_path):
        report = run_campaign("group", benchmarks=("gzip", "mcf"),
                              num_instructions=600, warmup=300,
                              seed=0, workers=2, workdir=str(tmp_path))
        assert report.identical
        assert report.counters["pool_rebuilds"] >= 1  # the kill broke it
        assert report.failures == []

    def test_needs_enough_policies_for_a_mid_group_fault(self):
        with pytest.raises(ReproError, match="mid-group"):
            run_campaign("group", policies=("decrypt-only", "lazy"))

    def test_cli_group_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--campaign", "group", "--benchmark", "gzip",
                     "-n", "600", "--warmup", "300",
                     "--workdir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resume_exact ok" in out
        assert "bit-identical" in out


class TestStoreChaos:
    def test_campaign_quarantines_and_regenerates(self, tmp_path):
        report = run_campaign("store", benchmarks=("gzip",),
                              num_instructions=600, warmup=300,
                              seed=0, workdir=str(tmp_path))
        assert report.identical
        assert report.mismatches == []
        # Both damaged entries (trace + result) were quarantined, the
        # dead-pid lock was broken, and exactly the damaged job paid a
        # re-simulation -- every other job came straight from the store.
        assert report.counters["quarantined"] == 2
        assert report.counters["lock_breaks"] >= 1
        assert report.counters["regenerated"] == 1
        assert report.counters["store_hits"] == report.total_jobs - 1
        assert all(report.gates.values())
        assert "bit-identical" in report.render()
        assert set(report.as_dict()["injected"].values()) == {
            "entry-truncate", "entry-bitflip", "stale-lock"}

    def test_quarantine_evidence_left_on_disk(self, tmp_path):
        import os

        report = run_campaign("store", benchmarks=("gzip",),
                              num_instructions=600, warmup=300,
                              workdir=str(tmp_path))
        assert report.identical
        # The torn trace entry is moved aside; the flipped result line
        # stays in its append-only segment, named by offset in the log.
        quarantine = os.path.join(str(tmp_path), "store", "quarantine")
        assert len(os.listdir(quarantine)) == 1
        with open(os.path.join(str(tmp_path), "store",
                               "quarantine.rej")) as handle:
            evidence = [json.loads(line) for line in handle]
        assert len(evidence) == 2
        assert sum("offset" in entry for entry in evidence) == 1

    def test_stats_digest_hashes_the_produced_results(self, tmp_path,
                                                      monkeypatch):
        import dataclasses

        from repro.exec import chaos

        kwargs = dict(benchmarks=("gzip",), num_instructions=600,
                      warmup=300)
        clean = run_campaign("store", workdir=str(tmp_path / "a"),
                             **kwargs)
        # Skew only the reference: every cell now mismatches, but the
        # digest describes what the heal produced, so it cannot move.
        row = chaos.CAMPAIGNS["store"]
        skewed_row = dataclasses.replace(
            row, reference=lambda run: dict.fromkeys(row.reference(run),
                                                     "0" * 64))
        monkeypatch.setitem(chaos.CAMPAIGNS, "store", skewed_row)
        skewed = run_campaign("store", workdir=str(tmp_path / "b"),
                              **kwargs)
        assert not skewed.identical
        assert len(skewed.mismatches) == 2 * skewed.total_jobs
        assert skewed.stats_digest == clean.stats_digest

    def test_cli_store_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--campaign", "store", "--benchmark", "gzip",
                     "-n", "600", "--warmup", "300",
                     "--workdir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos campaign store" in out
        assert "bit-identical" in out
