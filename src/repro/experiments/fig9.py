"""Figure 9: normalized IPC vs re-map cache size.

Address obfuscation + authen-then-commit at three re-map cache sizes;
IPC improves with the size of the re-map cache.

``executor=`` shares one backend (and warm worker pool) across all
sizes; under a skipping failure policy, failed cells render as ``--``
and are excluded from the averages.
"""

from repro.config import SimConfig
from repro.exec import executor_scope
from repro.sim.report import render_table
from repro.sim.sweep import PolicySweep

POLICY = "commit+obfuscation"
DEFAULT_SIZES = (16 * 1024, 64 * 1024, 256 * 1024)


def run(sizes=DEFAULT_SIZES, benchmarks=None, num_instructions=12_000,
        warmup=12_000, l2_bytes=256 * 1024, executor=None):
    """Returns ``{size: {benchmark: normalized ipc}}`` plus averages."""
    if benchmarks is None:
        from repro.workloads.spec import fp_benchmarks, int_benchmarks

        benchmarks = int_benchmarks() + fp_benchmarks()
    results = {}
    with executor_scope(executor) as active:
        for size in sizes:
            config = (SimConfig().with_l2_size(l2_bytes)
                      .with_secure(remap_cache_bytes=size))
            sweep = PolicySweep(benchmarks, [POLICY], config=config,
                                num_instructions=num_instructions,
                                warmup=warmup).run(executor=active)
            results[size] = sweep.normalized_series(POLICY)
    return results


def averages(results):
    """Per-size average over the benchmarks that completed (None: none)."""
    out = {}
    for size, series in results.items():
        values = [v for v in series.values() if v is not None]
        out[size] = sum(values) / len(values) if values else None
    return out


TITLE = ("Figure 9 -- normalized IPC vs re-map cache size "
         "(obfuscation + authen-then-commit, 256KB L2)")


def _table(results, sizes):
    """The rendered table's (headers, rows) from ``run`` results."""
    benchmark_names = sorted(next(iter(results.values())))
    headers = ["benchmark"] + ["%dKB" % (s // 1024) for s in sizes]
    rows = [[b] + [results[s][b] for s in sizes]
            for b in benchmark_names]
    avg = averages(results)
    rows.append(["average"] + [avg[s] for s in sizes])
    return headers, rows


def emit(*, executor=None, num_instructions=12_000, warmup=12_000,
         benchmarks=None, sizes=DEFAULT_SIZES):
    """One workload run, both artifact forms: ``(text, series)``."""
    from repro.obs.export import (build_figure_series, series_from_matrix,
                                  series_panel)
    results = run(sizes, benchmarks=benchmarks,
                  num_instructions=num_instructions, warmup=warmup,
                  executor=executor)
    headers, rows = _table(results, sizes)
    return (TITLE + "\n" + render_table(headers, rows),
            build_figure_series(
                "fig9", TITLE,
                [series_panel("fig9", TITLE,
                              series_from_matrix(headers, rows))]))


if __name__ == "__main__":
    print(emit()[0])
