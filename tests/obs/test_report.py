"""Run health report tests: built over a real (seeded) faulty sweep."""

import json

import pytest

from repro.exec import RETRY_THEN_SKIP, FailurePolicy, set_attempt_hook
from repro.obs.export import build_sweep_manifest, write_json
from repro.obs.metrics import MetricsRegistry, write_metrics
from repro.obs.report import build_report, render_report, sniff_kind
from repro.sim.checkpoint import JobJournal
from repro.sim.sweep import PolicySweep


@pytest.fixture
def hook():
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


def faulty_sweep(tmp_path, hook):
    """A 2x2 sweep with one retried job and one terminally skipped job.

    Returns (sweep, manifest_path, metrics_path, journal_path).
    """
    sweep = PolicySweep(["gzip", "mcf"], ["authen-then-commit"],
                        num_instructions=600, warmup=300)
    jobs = sweep.jobs()
    retried = next(j for j in jobs
                   if (j.benchmark, j.policy) ==
                   ("gzip", "authen-then-commit"))
    doomed = next(j for j in jobs
                  if (j.benchmark, j.policy) ==
                  ("mcf", "authen-then-commit"))

    def inject(job, attempt):
        if job.job_id == retried.job_id and attempt == 1:
            raise RuntimeError("transient hiccup")
        if job.job_id == doomed.job_id:
            raise RuntimeError("permanently broken cell")

    hook(inject)
    metrics = MetricsRegistry()
    journal_path = tmp_path / "sweep.journal"
    sweep.run(journal=JobJournal(journal_path),
              failure_policy=FailurePolicy(mode=RETRY_THEN_SKIP,
                                           max_attempts=2,
                                           backoff_base=0.0, jitter=0.0),
              metrics=metrics)
    manifest_path = tmp_path / "sweep.json"
    metrics_path = tmp_path / "metrics.json"
    write_json(build_sweep_manifest(sweep), manifest_path)
    write_metrics(metrics, metrics_path)
    return sweep, manifest_path, metrics_path, journal_path


class TestSniffing:
    def test_kinds(self):
        assert sniff_kind({"kind": "sweep"}) == "sweep"
        assert sniff_kind({"kind": "metrics"}) == "metrics"
        assert sniff_kind({"kind": "chaos"}) == "chaos"
        assert sniff_kind({"families": {}}) == "metrics"
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            sniff_kind({"mystery": True})
        # Chaos reports carry their kind; shape guessing is gone.
        with pytest.raises(ReproError):
            sniff_kind({"stats_digest": "x", "faults": []})


class TestBuildReport:
    def test_faulty_sweep_report(self, tmp_path, hook):
        sweep, manifest, metrics, journal = faulty_sweep(tmp_path, hook)
        report = build_report([manifest, metrics], journal=journal)

        # Both injected jobs count as retried: the healed one and the
        # doomed one (it got its second attempt before giving up).
        assert report["jobs"] == {"total": 4, "ok": 3, "resumed": 0,
                                  "failed": 1, "retried": 2}
        failed = [c for c in report["cells"] if c["status"] == "failed"]
        assert len(failed) == 1
        assert "permanently broken cell" in failed[0]["error"]
        retried = [c for c in report["cells"]
                   if (c.get("attempts") or 1) > 1]
        assert ("gzip", "authen-then-commit") in \
            [(c["benchmark"], c["policy"]) for c in retried]
        assert len(retried) == 2

        # Only completed jobs are journaled, so 3 costed entries.
        assert len(report["slowest"]) == 3
        assert all(e["wall_seconds"] > 0 for e in report["slowest"])
        assert report["wall"]["count"] == 3
        assert report["wall"]["p50"] is not None
        assert report["cache"]["hits"] + report["cache"]["misses"] == 3
        # Every journaled job says which path evaluated it.
        assert set(report["paths"]) <= {"native", "legacy"}
        assert sum(report["paths"].values()) == 3
        # The metrics snapshot contributes family headlines: one retry
        # event per injected job (the healed and the doomed one).
        assert report["metrics_families"][
            "repro_job_retries_total"]["total"] == 2

    def test_snapshot_job_count_matches_manifest(self, tmp_path, hook):
        # Acceptance: repro_jobs_total in the snapshot equals the
        # manifest's settled-job count (runs + terminal failures).
        _, manifest_path, metrics_path, _ = faulty_sweep(tmp_path, hook)
        manifest = json.loads(manifest_path.read_text())
        snapshot = json.loads(metrics_path.read_text())
        jobs_total = sum(
            s["value"] for s in
            snapshot["families"]["repro_jobs_total"]["samples"])
        assert jobs_total == \
            len(manifest["runs"]) + len(manifest["failures"])

    def test_render_report_text(self, tmp_path, hook):
        _, manifest, metrics, journal = faulty_sweep(tmp_path, hook)
        text = render_report(build_report([manifest, metrics],
                                          journal=journal))
        assert "jobs: 4 total | 3 ok | 0 resumed | 1 failed | 2 retried" \
            in text
        assert "health by benchmark x policy:" in text
        assert "permanently broken cell" in text
        assert "slowest 3 job(s)" in text
        assert "wall time per job: n=3" in text
        assert "evaluation path: " in text
        assert "degradations: none" in text
        assert "metrics snapshot:" in text

    def test_accounting_survives_journal_resume(self, tmp_path):
        sweep = PolicySweep(["gzip"], ["authen-then-commit"],
                            num_instructions=600, warmup=300)
        sweep.run(journal=JobJournal(tmp_path / "j.journal"))
        resumed = PolicySweep(["gzip"], ["authen-then-commit"],
                              num_instructions=600, warmup=300)
        metrics = MetricsRegistry()
        resumed.run(journal=JobJournal(tmp_path / "j.journal"),
                    metrics=metrics)
        for result in resumed.results.values():
            accounting = result.accounting
            assert accounting["wall_seconds"] > 0
            assert accounting["cache_hit"] in (True, False)
        # Resumed jobs land in the jobs counter under their own status.
        snapshot = metrics.snapshot()
        samples = snapshot["families"]["repro_jobs_total"]["samples"]
        assert {"labels": {"status": "resumed"}, "value": 2} in samples

    def test_empty_distributions_render_dashes(self, tmp_path):
        # A v1-era journal record carries no accounting; the report
        # must say -- rather than invent zeros.
        sweep = PolicySweep(["gzip"], ["authen-then-commit"],
                            num_instructions=600, warmup=300)
        sweep.run()
        journal = JobJournal(tmp_path / "old.journal")
        for job in sweep.jobs():
            result = sweep.results[(job.benchmark, job.policy)]
            result.accounting = None
            journal.record(job, result)
        report = build_report([], journal=tmp_path / "old.journal")
        assert report["slowest"] == []
        assert report["wall"]["count"] == 0
        assert report["wall"]["p50"] is None
        text = render_report(report)
        assert "wall time per job: n=0 mean=-- p50=-- p95=-- max=--" \
            in text

    def test_missing_journal_is_an_error(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="journal not found"):
            build_report([], journal=tmp_path / "nope.journal")


class TestReportCli:
    def test_json_output(self, capsys, tmp_path, hook):
        from repro.cli import main

        _, manifest, metrics, journal = faulty_sweep(tmp_path, hook)
        code = main(["report", str(manifest), str(metrics),
                     "--journal", str(journal), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "report"
        assert report["jobs"]["failed"] == 1
        assert report["jobs"]["retried"] == 2

    def test_journal_is_read_not_repaired(self, capsys, tmp_path, hook):
        from repro.cli import main

        _, _, _, journal = faulty_sweep(tmp_path, hook)
        with open(journal, "a") as handle:
            handle.write("garbage, not a record\n")
        before = journal.read_bytes()
        assert main(["report", "--journal", str(journal), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert journal.read_bytes() == before
        assert not (tmp_path / "sweep.journal.rej").exists()
        assert report["journal"] == {"records": 3, "skipped_lines": 1}
        assert any("1 line(s) skipped" in line
                   for line in report["degradations"])

    def test_text_output(self, capsys, tmp_path, hook):
        from repro.cli import main

        _, manifest, _, _ = faulty_sweep(tmp_path, hook)
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "run health report" in out
        assert "1 failed" in out

    def test_no_inputs_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 2
        assert "nothing to report on" in capsys.readouterr().err

    def test_unreadable_artifact_is_an_error(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_chaos_report_feeds_the_health_table(self, capsys, tmp_path):
        # Acceptance: a chaos run (worker kill + retries) surfaces its
        # retries and degradations in the report.
        from repro.cli import main
        from repro.exec.chaos import FAULT_WORKER_KILL, run_campaign
        from repro.obs.export import write_json

        chaos = run_campaign("sweep", benchmarks=["gzip"],
                             policies=["decrypt-only",
                                       "authen-then-commit"],
                             num_instructions=600, warmup=300, seed=0,
                             faults=(FAULT_WORKER_KILL,), workers=2,
                             workdir=tmp_path)
        chaos_json = tmp_path / "chaos.json"
        write_json(chaos.as_dict(), chaos_json)
        journal = str(tmp_path / "chaos.journal")
        assert main(["report", str(chaos_json),
                     "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "health by benchmark x policy:" in out
        assert "chaos campaign sweep: bit-identical" in out
        assert "pool_rebuilds=" in out and "pool_rebuilds=0" not in out
        assert "fault_fired ok" in out
        assert "chaos: injected worker-kill" in out
        # Journal-supplied names: rows show benchmark/policy, not ids.
        assert "gzip" in out

        assert main(["report", str(chaos_json), "--journal", journal,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"]["retried"] >= 1  # the killed job re-ran
        assert any("worker-kill" in d for d in report["degradations"])
        (campaign,) = report["chaos"]
        assert campaign["counters"]["pool_rebuilds"] >= 1
        assert campaign["gates"] == {"fault_fired": True}


class TestStoreReporting:
    def test_metrics_snapshot_fills_cache_evictions(self, tmp_path, hook):
        _, manifest, metrics, journal = faulty_sweep(tmp_path, hook)
        # The journal cannot know evictions (they are process-wide);
        # the metrics snapshot fills them in instead of the old
        # hardcoded None.
        with_metrics = build_report([manifest, metrics], journal=journal)
        assert with_metrics["cache"]["evictions"] == 0
        journal_only = build_report([manifest], journal=journal)
        assert journal_only["cache"]["evictions"] is None

    def test_store_section_from_metrics_and_journal(self, tmp_path):
        from repro.exec import (ArtifactStore, SerialExecutor, TraceCache,
                                build_jobs, set_active_store)

        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store", metrics=registry)
        jobs = build_jobs(["gzip"],
                          ["decrypt-only", "authen-then-commit"],
                          num_instructions=600, warmup=300)
        journal_path = tmp_path / "warm.journal"
        previous = set_active_store(store)
        try:
            SerialExecutor(cache=TraceCache()).run(jobs)   # cold
            SerialExecutor(cache=TraceCache()).run(        # warm
                jobs, journal=JobJournal(journal_path),
                metrics=registry)
        finally:
            set_active_store(previous)
        metrics_path = tmp_path / "metrics.json"
        write_metrics(registry, metrics_path)

        report = build_report([metrics_path], journal=journal_path)
        assert report["store"]["result_short_circuits"] == len(jobs)
        assert report["store"]["hits"] >= len(jobs)
        assert report["store"]["quarantined"] == 0
        # Store-served jobs belong in neither cache column.
        assert report["cache"] is None

        text = render_report(report)
        assert "artifact store:" in text
        assert "%d job(s) served without simulation" % len(jobs) in text
        assert "store" in text.lower()
