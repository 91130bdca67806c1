"""``repro figures``: registry, shared-executor fan-out, CLI, failures."""

import json
import re

import pytest

from repro.exec import (
    SKIP_AND_REPORT,
    ArtifactStore,
    FailurePolicy,
    make_executor,
    set_active_store,
    set_attempt_hook,
)
from repro.experiments.figures import ARTIFACTS, run_figures

SCALE = dict(num_instructions=600, warmup=300)
BENCHMARKS = ("gzip", "mcf")


@pytest.fixture
def hook():
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


class TestRegistry:
    def test_every_artifact_registered(self):
        assert list(ARTIFACTS) == [
            "table1", "table2", "table3", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig12", "ablations", "variance",
            "sensitivity",
        ]

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_figures(["fig99"], str(tmp_path), **SCALE)


class TestRunFigures:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        summary = run_figures(["table1", "fig6"], str(tmp_path), **SCALE)
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "fig6.txt").exists()
        manifest = json.loads(
            (tmp_path / "figures-manifest.json").read_text())
        assert manifest["kind"] == "figures"
        assert manifest["artifacts"] == ["table1", "fig6"]
        assert manifest["total_failures"] == 0
        assert summary["total_failures"] == 0

    def test_log_reports_each_artifact_wall_time(self, tmp_path):
        lines = []
        run_figures(["table1", "fig6"], str(tmp_path), log=lines.append,
                    **SCALE)
        assert len(lines) == 2
        for name, line in zip(("table1", "fig6"), lines):
            match = re.fullmatch(
                r"(\S+) +-> (\S+) \((\d+) job\(s\), 0 failed, "
                r"(\d+\.\d\d)s\)", line)
            assert match, line
            assert match.group(1) == name
            assert match.group(2) == str(tmp_path / ("%s.txt" % name))
            assert float(match.group(4)) >= 0.0

    def test_parallel_is_byte_identical_to_serial(self, tmp_path):
        serial = run_figures(["fig8"], str(tmp_path / "s"), jobs=1,
                             benchmarks=BENCHMARKS, **SCALE)
        parallel = run_figures(["fig8"], str(tmp_path / "p"), jobs=2,
                               benchmarks=BENCHMARKS, **SCALE)
        want = (tmp_path / "s" / "fig8.txt").read_bytes()
        got = (tmp_path / "p" / "fig8.txt").read_bytes()
        assert want == got
        ms = json.loads((tmp_path / "s" /
                         "figures-manifest.json").read_text())
        mp = json.loads((tmp_path / "p" /
                         "figures-manifest.json").read_text())
        for volatile in ("backend", "git", "phases"):
            ms.pop(volatile), mp.pop(volatile)
        assert ms == mp
        assert serial["entries"][0]["jobs"]  # outcomes were recorded

    def test_manifest_records_backend_and_jobs(self, tmp_path):
        run_figures(["fig8"], str(tmp_path), jobs=2,
                    benchmarks=("gzip",), **SCALE)
        manifest = json.loads(
            (tmp_path / "figures-manifest.json").read_text())
        assert manifest["backend"] == {"backend": "process", "jobs": 2}
        entry = manifest["figures"][0]
        assert entry["name"] == "fig8"
        assert all("wall_time" not in job for job in entry["jobs"])
        assert all(job["status"] == "ok" for job in entry["jobs"])

    def test_borrowed_executor_shared_and_left_open(self, tmp_path):
        with make_executor(2) as executor:
            run_figures(["fig8"], str(tmp_path / "a"),
                        executor=executor, benchmarks=("gzip",), **SCALE)
            # Still usable: the scope must not have closed it.
            run_figures(["fig8"], str(tmp_path / "b"),
                        executor=executor, benchmarks=("gzip",), **SCALE)
        want = (tmp_path / "a" / "fig8.txt").read_bytes()
        assert want == (tmp_path / "b" / "fig8.txt").read_bytes()


#: Every artifact that runs jobs.  None of their drivers takes a failure
#: policy: the figure-level one must reach every sweep they run.
JOB_ARTIFACTS = ("fig7", "fig8", "fig9", "fig10", "fig12", "ablations",
                 "variance", "sensitivity")


class TestFigureFailures:
    @pytest.mark.parametrize("name", JOB_ARTIFACTS)
    def test_failed_job_yields_placeholder_and_footer(self, hook,
                                                      tmp_path, name):
        # One benchmark, so a failed job empties every average it feeds
        # and shows as -- even in the averaged studies.  The failing job
        # comes from a reference run's manifest: a fixed cell would miss
        # artifacts that never run it (fig9 runs one policy).
        scale = dict(benchmarks=("mcf",), **SCALE)
        reference = run_figures([name], str(tmp_path / "reference"),
                                **scale)
        assert reference["total_failures"] == 0
        jobs = sorted(reference["entries"][0]["jobs"],
                      key=lambda job: job["job_id"])
        target = jobs[len(jobs) // 2]

        def fail_one(job, attempt):
            if job.job_id == target["job_id"]:
                raise RuntimeError("injected terminal failure")

        hook(fail_one)
        summary = run_figures(
            [name], str(tmp_path),
            failure_policy=FailurePolicy(mode=SKIP_AND_REPORT), **scale)
        text = (tmp_path / ("%s.txt" % name)).read_text()
        assert "--" in text
        assert "failed terminally" in text
        assert "%s/%s" % (target["benchmark"], target["policy"]) in text
        assert summary["total_failures"] == 1
        manifest = json.loads(
            (tmp_path / "figures-manifest.json").read_text())
        assert manifest["total_failures"] == 1
        failure = manifest["figures"][0]["failures"][0]
        assert failure["job_id"] == target["job_id"]
        assert failure["benchmark"] == target["benchmark"]
        assert failure["policy"] == target["policy"]

    @pytest.mark.parametrize("name", JOB_ARTIFACTS)
    def test_every_job_failing_still_renders(self, hook, tmp_path, name):
        # A sweep that bypassed the figure's executor would run under
        # the default fail-fast policy and abort, or go unaudited.
        reference = run_figures([name], str(tmp_path / "reference"),
                                benchmarks=("mcf",), **SCALE)
        job_ids = {job["job_id"] for job in reference["entries"][0]["jobs"]}

        def fail_all(job, attempt):
            raise RuntimeError("injected terminal failure")

        hook(fail_all)
        summary = run_figures(
            [name], str(tmp_path), benchmarks=("mcf",),
            failure_policy=FailurePolicy(mode=SKIP_AND_REPORT), **SCALE)
        assert summary["total_failures"] == len(job_ids)
        assert {job["job_id"] for job in summary["entries"][0]["failures"]
                } == job_ids
        text = (tmp_path / ("%s.txt" % name)).read_text()
        assert "%d job(s) failed terminally" % len(job_ids) in text


class TestTable2Store:
    """Table 2 runs its 25 attacks (5 fetch-channel exploits x 5
    policies) once per store: a warm run reads their outcome."""

    def _run(self, tmp_path, name, store):
        previous = set_active_store(store)
        try:
            run_figures(["table2"], str(tmp_path / name), emit_json=True)
        finally:
            set_active_store(previous)
        return [(tmp_path / name / ("table2" + ext)).read_bytes()
                for ext in (".txt", ".json")]

    def test_a_warm_run_makes_no_attack(self, tmp_path, attack_runs):
        cold = self._run(tmp_path, "cold", ArtifactStore(tmp_path / "s"))
        assert len(attack_runs) == 25
        warm_store = ArtifactStore(tmp_path / "s")
        warm = self._run(tmp_path, "warm", warm_store)
        assert len(attack_runs) == 25
        assert (warm_store.counters["attacks_hits"],
                warm_store.counters["attacks_misses"]) == (1, 0)
        assert self._run(tmp_path, "none", None) == warm == cold
        assert len(attack_runs) == 50

    def test_without_a_store_every_run_attacks(self, tmp_path, attack_runs,
                                               monkeypatch):
        saves = []
        monkeypatch.setattr(ArtifactStore, "save_attacks",
                            lambda self, *args: saves.append(args))
        first = self._run(tmp_path, "first", None)
        assert self._run(tmp_path, "second", None) == first
        assert len(attack_runs) == 50
        assert saves == []


class TestFiguresCli:
    def test_cli_subset_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["figures", "--only", "fig6,table1", "--jobs", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig6.txt").exists()
        assert (tmp_path / "table1.txt").exists()
        captured = capsys.readouterr()
        assert "figures manifest written" in captured.out
        # Per-artifact progress lines carry wall time, so they go to
        # stderr and leave stdout deterministic.
        assert "table1" not in captured.out
        assert re.search(r"fig6 +-> .*, \d+\.\d\ds\)", captured.err)

    def test_cli_rejects_unknown_artifact(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["figures", "--only", "fig99",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_cli_only_and_all_conflict(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["figures", "--only", "fig6", "--all",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["table1", "table3", "fig6", "fig8"])
    def test_single_figure_command_prints_the_artifact(self, capsys,
                                                       tmp_path, name):
        from repro.cli import main
        from repro.experiments import ANALYTIC

        scale = ["-n", "300", "--warmup", "300"]
        assert main(["figures", "--only", name, "--out", str(tmp_path)]
                    + scale) == 0
        capsys.readouterr()
        # An analytic artifact takes no scale: its command has no -n.
        assert main([name] + (scale if name not in ANALYTIC else [])) == 0
        printed = capsys.readouterr().out.encode()
        assert printed == (tmp_path / ("%s.txt" % name)).read_bytes()

    def test_cli_failure_exits_one(self, capsys, hook, tmp_path):
        from repro.cli import main

        def fail_one(job, attempt):
            if (job.benchmark, job.policy) == ("mcf",
                                               "authen-then-commit"):
                raise RuntimeError("injected terminal failure")

        hook(fail_one)
        code = main(["figures", "--only", "fig8", "--on-error", "skip",
                     "-n", "600", "--warmup", "300",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "failed terminally" in capsys.readouterr().err
