#!/usr/bin/env python3
"""Compare two benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py A B

``A`` (the baseline) and ``B`` (the candidate) are result files written
by ``bench/run.py --out`` or directories of them; the repetitions of
every file on one side are pooled.  Each workload gets a summary row and
one line per end-to-end metric with both medians, quartiles and the
change against the metric's bound:

- ``REGRESSION``: B is worse than A by more than the bound;
- ``improved``: B is better by more than the bound;
- ``unresolved``: the spread between quartiles exceeds the bound on one
  side, so the change cannot be told from noise, unless every sample of
  one side beats every sample of the other;
- ``worse`` / ``better``: within the bound, but every sample of one
  side beats every sample of the other (not a failure);
- ``ok``: within the bound.

Figure outputs are compared cell by cell with ``repro diff``'s
``diff_figures`` (exact), and sweep result digests for equal seeds.
Exit 0 when nothing regressed and outputs match, 1 otherwise, 2 when
there is nothing to compare.
"""

import json
import os
import sys

from run import summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(path):
    """Every bench result at ``path`` (a file or a directory of them)."""
    if os.path.isdir(path):
        names = sorted(os.path.join(folder, name)
                       for folder, _dirs, files in os.walk(path)
                       for name in files if name.endswith(".json"))
    else:
        names = [path]
    results = []
    for name in names:
        try:
            with open(name) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and payload.get("kind") == "bench-result":
            results.append(payload)
    return results


def pool(results):
    """``{workload: {"samples": {metric: [...]}, "runs": [...]}}``."""
    pooled = {}
    for result in results:
        for name, workload in result["workloads"].items():
            entry = pooled.setdefault(name, {"samples": {}, "runs": []})
            entry["runs"].append((result, workload))
            for metric, stats in workload["metrics"].items():
                entry["samples"].setdefault(metric, []).extend(
                    stats["samples"])
    return pooled


def verdict(a, b, bound, better):
    """Classify B against A; returns (verdict, relative worsening)."""
    stats_a, stats_b = summarize(a), summarize(b)
    worse = (stats_b["value"] - stats_a["value"]) / stats_a["value"]
    if better == "higher":
        worse = -worse
    spread = max((stats["q3"] - stats["q1"]) / stats["value"]
                 for stats in (stats_a, stats_b))
    if better == "lower":
        separated = max(b) < min(a) or max(a) < min(b)
    else:
        separated = min(b) > max(a) or min(a) > max(b)
    if spread > bound and not separated:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    if worse < -bound:
        return "improved", worse
    if separated:
        # Inside the bound, but every sample of one side beats every
        # sample of the other: a real change, too small to fail on.
        return ("worse" if worse > 0 else "better"), worse
    return "ok", worse


def compare_outputs(runs_a, runs_b):
    """Problems found comparing figure outputs and sweep digests."""
    from repro.serve.diff import diff_figures

    problems = []
    dirs_a = [w["figures_dir"] for _r, w in runs_a
              if os.path.isdir(w.get("figures_dir") or "")]
    dirs_b = [w["figures_dir"] for _r, w in runs_b
              if os.path.isdir(w.get("figures_dir") or "")]
    if dirs_a and dirs_b:
        report = diff_figures(dirs_a[0], dirs_b[0])
        if not report["identical"]:
            problems.append("figures differ: %d changed cell(s)"
                            % report["changed_cells"])
    digests_a = {(r["environment"]["seed"], r["environment"]["scale"]):
                 r["digests"].get("sweep") for r, _w in runs_a}
    for result, _w in runs_b:
        key = (result["environment"]["seed"], result["environment"]["scale"])
        theirs, ours = digests_a.get(key), result["digests"].get("sweep")
        if theirs and ours and theirs != ours:
            problems.append("sweep results differ at seed %s" % key[0])
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        specs = json.load(handle)["end_to_end"]
    side_a, side_b = pool(load_side(argv[0])), pool(load_side(argv[1]))
    shared = [name for name in side_a if name in side_b]
    if not shared:
        print("nothing to compare: no workload in both %s and %s"
              % tuple(argv), file=sys.stderr)
        return 2
    failed = False
    for name in shared:
        a, b = side_a[name], side_b[name]
        lines = []
        verdicts = []
        for spec in specs:
            metric = spec["name"]
            if metric not in a["samples"] or metric not in b["samples"]:
                continue
            xs, ys = a["samples"][metric], b["samples"][metric]
            result, worse = verdict(xs, ys, spec["bound"], spec["better"])
            verdicts.append(result)
            sa, sb = summarize(xs), summarize(ys)
            lines.append("  %-12s %11.5g [%.5g, %.5g]  %11.5g [%.5g, %.5g]"
                         "  %+7.1f%% (bound %.0f%%)  %s"
                         % (metric, sa["value"], sa["q1"], sa["q3"],
                            sb["value"], sb["q1"], sb["q3"],
                            100 * worse, 100 * spec["bound"], result))
        problems = compare_outputs(a["runs"], b["runs"])
        regressed = "REGRESSION" in verdicts or problems
        failed = failed or bool(regressed)
        summary = ("REGRESSION" if regressed else
                   "unresolved" if "unresolved" in verdicts else
                   "worse" if "worse" in verdicts else "ok")
        print("%-15s %s  (A: %d run(s), B: %d run(s))%s"
              % (name, summary, len(a["runs"]), len(b["runs"]),
                 "".join("; " + problem for problem in problems)))
        print("\n".join(lines))
    print("(worse-is-positive change of B against A; medians with "
          "quartiles)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
