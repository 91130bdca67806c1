"""``repro figures``: registry, shared-executor fan-out, CLI, failures."""

import json
import re

import pytest

from repro.exec import (
    SKIP_AND_REPORT,
    FailurePolicy,
    make_executor,
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


class TestFigureFailures:
    def test_failed_job_yields_placeholder_and_footer(self, hook,
                                                      tmp_path):
        def fail_one(job, attempt):
            if (job.benchmark, job.policy) == ("mcf",
                                               "authen-then-commit"):
                raise RuntimeError("injected terminal failure")

        hook(fail_one)
        summary = run_figures(
            ["fig8"], str(tmp_path), benchmarks=BENCHMARKS,
            failure_policy=FailurePolicy(mode=SKIP_AND_REPORT), **SCALE)
        text = (tmp_path / "fig8.txt").read_text()
        assert "--" in text
        assert "failed terminally" in text
        assert "mcf/authen-then-commit" in text
        assert summary["total_failures"] == 1
        manifest = json.loads(
            (tmp_path / "figures-manifest.json").read_text())
        assert manifest["total_failures"] == 1
        failure = manifest["figures"][0]["failures"][0]
        assert failure["benchmark"] == "mcf"
        assert failure["policy"] == "authen-then-commit"


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
