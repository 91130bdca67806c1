"""One timed repetition, run in a fresh process by ``bench/run.py``.

``python3 bench/child.py SPEC.json`` imports the program's entry point,
loads the native kernel and opens the artifact store (the set-up a user
pays on every run), writes its ``time.perf_counter()`` to the ready
pipe, and then drives the program through a public function or its
CLI.  With ``trace_dir`` set, the layer shim from ``bench/spans.py`` is
installed before the ready stamp and flushes its spans on exit.

Spec keys: ``src`` (the program's source root), ``ready_fd``,
``trace_dir`` (or null), ``probe`` (exit as soon as set-up is done, to
sample set-up time alone) and ``kind``, one of

- ``figures``: ``run_figures(names, out, benchmarks=..., ...)`` against
  the store at ``store`` (exit 1 when any job failed);
- ``cli``: ``python -m repro <argv...>`` through ``runpy``;
- ``goldens``: ``repro.perf.bench.check_goldens()``, printing every
  mismatch (exit 1 when there is one).
"""

import json
import os
import runpy
import sys
import time


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    kind = spec["kind"]
    if kind == "figures":
        import repro.experiments.figures
        from repro.exec.store import ArtifactStore, set_active_store
        set_active_store(ArtifactStore(spec["store"]))
    elif kind == "cli":
        import repro.cli  # noqa: F401  (import cost belongs to set-up)
    from repro.cpu.native import native_available
    native_available()

    recorder = None
    if spec.get("trace_dir"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        recorder = spans.install(spec["trace_dir"])
    os.write(spec["ready_fd"], repr(time.perf_counter()).encode())
    os.close(spec["ready_fd"])
    if spec.get("probe"):
        return 0
    try:
        if kind == "figures":
            summary = repro.experiments.figures.run_figures(
                spec["names"], spec["out"], benchmarks=spec["benchmarks"],
                num_instructions=spec["n"], warmup=spec["warmup"],
                emit_json=True)
            return 1 if summary["total_failures"] else 0
        if kind == "cli":
            sys.argv = ["repro"] + spec["argv"]
            try:
                runpy.run_module("repro", run_name="__main__",
                                 alter_sys=True)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            return 0
        from repro.perf.bench import check_goldens
        mismatches = check_goldens()
        for line in mismatches:
            print(line)
        return 1 if mismatches else 0
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
