"""Figures 10 and 11: sensitivity to the RUU size (64 entries).

Figure 10: normalized IPC of the four schemes with a 64-entry RUU.
Figure 11: speedup of authen-then-commit and commit+fetch over
authen-then-issue with the 64-entry RUU.  The paper finds the same
performance ranking as with 128 entries.

Both figures come from one sweep, so ``executor=`` threads straight
through to it; under a skipping failure policy, failed cells render as
``--``.
"""

from repro.config import SimConfig
from repro.policies.registry import policy_set
from repro.sim.report import render_panels
from repro.sim.sweep import PolicySweep, normalized_ipc_table, speedup_over
from repro.workloads.spec import fp_benchmarks, int_benchmarks

FIG10_POLICIES = policy_set("figure10")


def run(ruu_entries=64, num_instructions=12_000, warmup=12_000,
        l2_bytes=256 * 1024, benchmarks=None, executor=None):
    if benchmarks is None:
        benchmarks = int_benchmarks() + fp_benchmarks()
    config = SimConfig().with_l2_size(l2_bytes).with_ruu(ruu_entries)
    sweep = PolicySweep(benchmarks, list(FIG10_POLICIES), config=config,
                        num_instructions=num_instructions,
                        warmup=warmup).run(executor=executor)
    fig10 = normalized_ipc_table(sweep, list(FIG10_POLICIES))
    fig11 = speedup_over(sweep, "authen-then-issue",
                         ["authen-then-commit", "commit+fetch"])
    return sweep, fig10, fig11


FIG11_POLICIES = ("authen-then-commit", "commit+fetch")
TITLE = "Figures 10 and 11 -- RUU-size sensitivity"


def emit(*, executor=None, num_instructions=12_000, warmup=12_000,
         benchmarks=None, ruu_entries=64):
    """One workload run, both artifact forms: ``(text, series)``."""
    _, fig10, fig11 = run(ruu_entries, num_instructions, warmup,
                          benchmarks=benchmarks, executor=executor)
    return render_panels("fig10", TITLE, [
        ("fig10", "Figure 10 -- normalized IPC, %d-entry RUU (256KB L2)"
         % ruu_entries, fig10, FIG10_POLICIES),
        ("fig11", "Figure 11 -- speedup over authen-then-issue, "
                  "%d-entry RUU" % ruu_entries, fig11, FIG11_POLICIES)])


if __name__ == "__main__":
    print(emit()[0])
