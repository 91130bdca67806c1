"""The harness end to end at toy size, and its correctness gates."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = run.ROOT


@pytest.fixture(scope="module")
def toy_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--scale", "toy", "--seconds", "0", "--trace", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as handle:
        return json.load(handle), proc.stdout.strip().splitlines()[-1]


def test_every_declared_metric_is_emitted_for_every_workload(toy_result):
    result, last_line = toy_result
    declared = run.declared_metrics()
    assert set(result["workloads"]) == set(run.WORKLOADS)
    for workload in result["workloads"].values():
        assert set(workload["metrics"]) == set(declared["end_to_end"])
        assert set(workload["layers"]) == set(declared["per_layer"])
        assert 0 < workload["layers"]["trace.coverage_pct"] <= 100.0
    # At toy size the sweep CLI's fixed start-up is a visible uncovered
    # share; the figure runs are covered end to end.
    assert result["workloads"]["figures-cold"]["layers"][
        "trace.coverage_pct"] >= 90.0
    summary = json.loads(last_line)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert len(summary["metrics"]) == (len(run.WORKLOADS)
                                       * len(declared["per_layer"]))


def test_result_carries_the_environment_block(toy_result):
    env = toy_result[0]["environment"]
    for key in ("git_sha", "git_dirty", "python", "nproc", "loadavg_start",
                "loadavg_end", "native_available", "seed", "reps"):
        assert key in env
    assert env["native_available"] is True


def test_one_changed_figure_cell_trips_the_gate(toy_result, tmp_path):
    reference = toy_result[0]["workloads"]["figures-cold"]["figures_dir"]
    changed = tmp_path / "changed"
    shutil.copytree(reference, changed)
    path = changed / "fig7.json"
    payload = json.loads(path.read_text())
    point = payload["panels"][0]["series"][0]["points"][0]
    point["y"] = (point["y"] or 0) + 0.001
    path.write_text(json.dumps(payload))

    gates = run.Gates()
    assert run.figures_identical(gates, "same", reference, reference)
    assert not run.figures_identical(gates, "changed", reference,
                                     str(changed))
    assert not gates.ok
    assert (run.series_digest(reference, ["fig7"])
            != run.series_digest(str(changed), ["fig7"]))


def test_a_result_saved_again_under_its_name_is_seen(tmp_path):
    from repro.exec.store import ArtifactStore
    from repro.sim.checkpoint import atomic_write_text

    store = ArtifactStore(str(tmp_path / "store"))
    hit, missed = (os.path.join(store.root, "results", name)
                   for name in ("hit.json", "missed.json"))
    atomic_write_text(hit, "{}")
    atomic_write_text(missed, "{}")
    before = run.result_inodes(store.root)
    store._touch(hit)                  # what a hit does to its entry
    atomic_write_text(missed, "{}")    # what save_result does after a miss
    after = run.result_inodes(store.root)
    assert after["hit.json"] == before["hit.json"]
    assert after["missed.json"] != before["missed.json"]


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
