"""Figure 7(a-d): normalized IPC of the six schemes.

Four panels: {INT, FP} x {256KB, 1MB} L2, all normalized against the
decrypt-only baseline, plus the per-suite averages the paper quotes
(authen-then-issue ~0.87, ... authen-then-write ~0.98).

Every entry point accepts ``executor=`` (a
:func:`repro.exec.make_executor` backend, shared across panels so one
warm worker pool serves the whole figure).  Under the skipping failure
policy ``repro figures`` gives that executor, a failed job renders as a
``--`` cell instead of aborting the figure.
"""

from repro.config import SimConfig
from repro.exec import executor_scope
from repro.policies.registry import FIGURE7_POLICIES
from repro.sim.report import render_panels, render_table, series_rows
from repro.sim.sweep import PolicySweep, normalized_ipc_table
from repro.workloads.spec import fp_benchmarks, int_benchmarks

DEFAULT_N = 12_000
DEFAULT_WARMUP = 12_000


def run(l2_bytes=256 * 1024, suite="int", num_instructions=DEFAULT_N,
        warmup=DEFAULT_WARMUP, policies=FIGURE7_POLICIES, benchmarks=None,
        executor=None):
    """One panel of Figure 7; returns (sweep, table_rows)."""
    if benchmarks is None:
        benchmarks = int_benchmarks() if suite == "int" else fp_benchmarks()
    config = SimConfig().with_l2_size(l2_bytes)
    sweep = PolicySweep(benchmarks, list(policies), config=config,
                        num_instructions=num_instructions,
                        warmup=warmup).run(executor=executor)
    return sweep, normalized_ipc_table(sweep, list(policies))


def run_all_panels(num_instructions=DEFAULT_N, warmup=DEFAULT_WARMUP,
                   policies=FIGURE7_POLICIES, benchmarks=None,
                   executor=None):
    """All four panels; returns {(suite, l2): table_rows}.

    ``benchmarks`` (default: each suite's own) serves both suites.
    """
    panels = {}
    with executor_scope(executor) as active:
        for l2 in (256 * 1024, 1024 * 1024):
            for suite in ("int", "fp"):
                _, rows = run(l2, suite, num_instructions, warmup,
                              policies, benchmarks, executor=active)
                panels[(suite, l2)] = rows
    return panels


def render_panel(rows, title, policies=FIGURE7_POLICIES):
    headers = ["benchmark"] + list(policies)
    return title + "\n" + render_table(headers,
                                       series_rows(rows, list(policies)))


#: Panel key -> (short name, title), in the (a)-(d) render order.
PANELS = {("int", 256 * 1024): ("fig7a", "Figure 7(a) SPEC2000 INT, "
                                         "256KB L2"),
          ("fp", 256 * 1024): ("fig7b", "Figure 7(b) SPEC2000 FP, "
                                        "256KB L2"),
          ("int", 1024 * 1024): ("fig7c", "Figure 7(c) SPEC2000 INT, "
                                          "1MB L2"),
          ("fp", 1024 * 1024): ("fig7d", "Figure 7(d) SPEC2000 FP, "
                                         "1MB L2")}
TITLE = "Figure 7 -- normalized IPC of the six schemes"


def emit(*, executor=None, num_instructions=DEFAULT_N,
         warmup=DEFAULT_WARMUP, benchmarks=None):
    """One workload run, both artifact forms: ``(text, series)``."""
    panels = run_all_panels(num_instructions, warmup,
                            benchmarks=benchmarks, executor=executor)
    text, series = render_panels("fig7", TITLE, [
        PANELS[key] + (panels[key], FIGURE7_POLICIES)
        for key in sorted(PANELS, key=lambda k: (k[1], k[0]))])
    return text + "\n", series


if __name__ == "__main__":
    print(emit()[0])
