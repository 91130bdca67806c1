"""PolicySweep-on-executor tests: ordering, manifests, backends, CLI."""

import json

import pytest

from repro.exec import ParallelExecutor, SerialExecutor
from repro.obs.export import build_sweep_manifest
from repro.sim.checkpoint import JobJournal, JournalTail
from repro.sim.sweep import BASELINE, PolicySweep


def small_sweep():
    return PolicySweep(["gzip"], ["authen-then-commit"],
                       num_instructions=600, warmup=300)


class TestBaselineOrdering:
    def test_baseline_appended_deterministically(self):
        sweep = small_sweep()
        assert sweep.policy_order() == ["authen-then-commit", BASELINE]
        assert sweep.policy_order(include_baseline=False) == \
            ["authen-then-commit"]

    def test_duplicates_dropped_first_wins(self):
        sweep = PolicySweep(["gzip"],
                            ["authen-then-commit", BASELINE,
                             "authen-then-commit"],
                            num_instructions=600, warmup=300)
        assert sweep.policy_order() == ["authen-then-commit", BASELINE]

    def test_order_is_call_independent(self):
        # Whatever include_baseline was used, the recorded order for a
        # given policy list is the same.
        a = small_sweep().run()
        b = small_sweep().run(include_baseline=True)
        assert a.executed_policies == b.executed_policies

    def test_manifest_reflects_injected_baseline(self):
        sweep = small_sweep().run()
        manifest = build_sweep_manifest(sweep)
        assert manifest["policies"] == ["authen-then-commit", BASELINE]
        assert {run["policy"] for run in manifest["runs"]} == \
            {"authen-then-commit", BASELINE}

    def test_checkpoint_reflects_injected_baseline(self, tmp_path):
        journal = JobJournal(tmp_path / "sweep.jsonl")
        sweep = small_sweep().run(journal=journal)
        assert sweep.executed_policies == ["authen-then-commit", BASELINE]
        journaled = JournalTail(tmp_path / "sweep.jsonl").poll()
        assert sorted(record["policy"] for record in journaled) == \
            sorted(["authen-then-commit", BASELINE])


class TestManifestJobMetadata:
    def test_job_ids_and_backend_recorded(self):
        sweep = small_sweep().run()
        manifest = build_sweep_manifest(sweep)
        assert manifest["backend"] == {"backend": "serial", "jobs": 1}
        ids = [run["job_id"] for run in manifest["runs"]]
        assert all(ids) and len(set(ids)) == len(ids)

    def test_checkpoint_carries_job_ids(self, tmp_path):
        sweep = small_sweep()
        sweep.run(journal=JobJournal(tmp_path / "sweep.jsonl"))
        reopened = JobJournal(tmp_path / "sweep.jsonl")
        assert reopened.completed_ids == {job.job_id for job in sweep.jobs()}


class TestBackendEquivalence:
    def test_parallel_sweep_matches_serial(self):
        serial = small_sweep().run(executor=SerialExecutor())
        with ParallelExecutor(2) as executor:
            parallel = small_sweep().run(executor=executor)
        assert parallel.backend == {"backend": "process", "jobs": 2}
        for key, result in serial.results.items():
            assert parallel.results[key].cycles == result.cycles
            assert parallel.results[key].stats.as_dict() == \
                result.stats.as_dict()

    def test_sweep_journal_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = small_sweep().run(journal=JobJournal(path))
        resumed = small_sweep().run(journal=JobJournal(path))
        for key in first.results:
            assert resumed.results[key].cycles == first.results[key].cycles


class TestSweepCli:
    def test_sweep_command_table_and_exports(self, capsys, tmp_path):
        from repro.cli import main

        manifest_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "gzip", "-p", "authen-then-commit",
                     "-n", "600", "--warmup", "300",
                     "--emit-json", str(manifest_path),
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized IPC" in out
        assert "backend=serial" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "sweep"
        assert manifest["backend"]["backend"] == "serial"
        assert all(run["job_id"] for run in manifest["runs"])
        assert csv_path.read_text().startswith("benchmark,policy")

    def test_sweep_command_checkpoint_resume(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "journal.jsonl"
        args = ["sweep", "gzip", "-p", "authen-then-commit",
                "-n", "600", "--warmup", "300",
                "--checkpoint", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 completed job(s) will be skipped" in out

    def test_sweep_command_parallel_matches_serial(self, capsys):
        from repro.cli import main

        args = ["sweep", "gzip", "mcf", "-p", "authen-then-commit",
                "-n", "600", "--warmup", "300"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        table = lambda text: [line for line in text.splitlines()
                              if line and "jobs in" not in line
                              and "backend" not in line]
        assert table(serial_out) == table(parallel_out)

    def test_sweep_command_no_baseline(self, capsys):
        from repro.cli import main

        assert main(["sweep", "gzip", "-p", "authen-then-commit",
                     "-n", "600", "--warmup", "300",
                     "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "absolute IPC" in out
        assert "decrypt-only" not in out


class TestSweepFaultTolerance:
    @pytest.fixture
    def hook(self):
        from repro.exec import set_attempt_hook

        installed = []

        def install(fn):
            installed.append(set_attempt_hook(fn))
            return fn

        yield install
        while installed:
            set_attempt_hook(installed.pop())

    def test_outcomes_land_in_manifest(self):
        sweep = small_sweep().run()
        manifest = build_sweep_manifest(sweep)
        assert manifest["failures"] == []
        for run in manifest["runs"]:
            assert run["status"] == "ok"
            assert run["attempts"] == 1
            assert run["metrics"]["ipc"] > 0

    def test_failed_job_skipped_and_reported(self, hook):
        from repro.exec import SKIP_AND_REPORT, FailurePolicy

        sweep = small_sweep()
        victim = sweep.jobs()[0]

        def fail_one(job, attempt):
            if job.job_id == victim.job_id:
                raise RuntimeError("injected")

        hook(fail_one)
        sweep.run(failure_policy=FailurePolicy(mode=SKIP_AND_REPORT))
        assert (victim.benchmark, victim.policy) not in sweep.results
        failed = sweep.failed_jobs()
        assert set(failed) == {(victim.benchmark, victim.policy)}
        manifest = build_sweep_manifest(sweep)
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["job_id"] == victim.job_id
        assert all(run["job_id"] != victim.job_id
                   for run in manifest["runs"])

    def test_cli_retries_heal_transient_failure(self, capsys, hook):
        from repro.cli import main

        failed_once = set()

        def fail_first(job, attempt):
            if job.job_id not in failed_once:
                failed_once.add(job.job_id)
                raise RuntimeError("transient")

        hook(fail_first)
        code = main(["sweep", "gzip", "-p", "authen-then-commit",
                     "-n", "600", "--warmup", "300", "--retries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 retried" in out

    def test_cli_skip_mode_reports_and_exits_one(self, capsys, hook):
        from repro.cli import main

        def always_fail(job, attempt):
            if job.policy == "authen-then-commit":
                raise RuntimeError("injected terminal failure")

        hook(always_fail)
        code = main(["sweep", "gzip", "-p", "authen-then-commit",
                     "-n", "600", "--warmup", "300",
                     "--on-error", "skip"])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed terminally" in captured.err
        # The table still renders: the failed cell is a placeholder and
        # the footer names the casualty.
        assert "normalized IPC" in captured.out
        assert "--" in captured.out
        assert "shown as --" in captured.out
        assert "gzip/authen-then-commit" in captured.out

    def test_retries_promote_skip_mode_to_retry(self, capsys):
        # "--on-error skip --retries 2" used to silently drop the
        # retries; now it resolves to retry-then-skip and says so.
        from repro.cli import _failure_policy, build_parser
        from repro.exec import RETRY_THEN_SKIP

        args = build_parser().parse_args(
            ["sweep", "gzip", "--on-error", "skip", "--retries", "2"])
        policy = _failure_policy(args)
        assert policy.mode == RETRY_THEN_SKIP
        assert policy.max_attempts == 3
        assert "promotes --on-error skip" in capsys.readouterr().err

    def test_retries_with_retry_mode_print_no_note(self, capsys):
        from repro.cli import _failure_policy, build_parser

        args = build_parser().parse_args(
            ["sweep", "gzip", "--on-error", "retry", "--retries", "2"])
        _failure_policy(args)
        assert "promotes" not in capsys.readouterr().err

    def test_cli_skip_retries_actually_retry(self, capsys, hook):
        from repro.cli import main

        attempts_seen = []

        def fail_first(job, attempt):
            if job.policy == "authen-then-commit":
                attempts_seen.append(attempt)
                if attempt == 1:
                    raise RuntimeError("transient")

        hook(fail_first)
        code = main(["sweep", "gzip", "-p", "authen-then-commit",
                     "-n", "600", "--warmup", "300",
                     "--on-error", "skip", "--retries", "2"])
        assert code == 0
        assert attempts_seen == [1, 2]

    def test_cli_compact_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["sweep", "gzip", "-n", "600", "--warmup", "300",
                     "--compact"]) == 2
        assert "--compact requires" in capsys.readouterr().err

    def test_cli_compact_drops_superseded_records(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "journal.jsonl"
        base = ["sweep", "gzip", "-n", "600", "--warmup", "300",
                "--checkpoint", str(journal)]
        assert main(base + ["-p", "authen-then-commit"]) == 0
        capsys.readouterr()
        # A different grid supersedes authen-then-commit's record.
        assert main(base + ["-p", "authen-then-write", "--compact"]) == 0
        out = capsys.readouterr().out
        assert "1 stale line(s) dropped" in out
        assert "1 completed job(s) will be skipped" in out  # baseline

    def test_cli_reports_quarantined_lines(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "journal.jsonl"
        args = ["sweep", "gzip", "-p", "authen-then-commit",
                "-n", "600", "--warmup", "300",
                "--checkpoint", str(journal)]
        assert main(args) == 0
        with open(journal, "a") as handle:
            handle.write('{"torn half-line\n')
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 corrupt line(s)" in out
