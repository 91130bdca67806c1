"""Figure 8: IPC speedup over authen-then-issue, 256KB L2.

The paper compares authen-then-commit, authen-then-write and
commit+fetch against the conservative authen-then-issue baseline:
commit ~ +12% average, write ~ +14%, commit+fetch ~ +10% for several
benchmarks.

``executor=`` threads through to the underlying
:class:`~repro.sim.sweep.PolicySweep`; a job that fails terminally
under a skipping failure policy renders as a ``--`` cell.
"""

from repro.config import SimConfig
from repro.policies.registry import policy_set
from repro.sim.report import render_panels
from repro.sim.sweep import PolicySweep, speedup_over
from repro.workloads.spec import fp_benchmarks, int_benchmarks

REFERENCE = "authen-then-issue"
COMPARED = policy_set("figure8")
TITLE = "Figure 8 -- IPC speedup over authen-then-issue (256KB L2)"


def run(num_instructions=12_000, warmup=12_000, l2_bytes=256 * 1024,
        benchmarks=None, compared=COMPARED, executor=None):
    if benchmarks is None:
        benchmarks = int_benchmarks() + fp_benchmarks()
    config = SimConfig().with_l2_size(l2_bytes)
    sweep = PolicySweep(benchmarks, [REFERENCE] + list(compared),
                        config=config, num_instructions=num_instructions,
                        warmup=warmup).run(include_baseline=False,
                                           executor=executor)
    return sweep, speedup_over(sweep, REFERENCE, list(compared))


def emit(*, executor=None, num_instructions=12_000, warmup=12_000,
         benchmarks=None):
    """One workload run, both artifact forms: ``(text, series)``."""
    _, rows = run(num_instructions, warmup, benchmarks=benchmarks,
                  executor=executor)
    return render_panels("fig8", TITLE, [("fig8", TITLE, rows, COMPARED)])


if __name__ == "__main__":
    print(emit()[0])
