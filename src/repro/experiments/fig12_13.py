"""Figures 12 and 13: hash-tree (CHTree) authentication.

Figure 12: normalized IPC of five schemes when per-line MACs are replaced
by an m-ary hash tree with an 8KB on-chip node cache.  Verification
latency grows (tree-node fetches), every scheme slows down, and the gaps
between authen-then-write / commit / fetch compress -- while the ranking
stays the same.  Figure 13: speedup of commit and commit+fetch over
authen-then-issue under the tree.

Both figures come from one sweep, so ``executor=`` threads straight
through to it; under a skipping failure policy, failed cells render as
``--``.
"""

from repro.config import SimConfig
from repro.policies.registry import policy_set
from repro.sim.report import render_panels
from repro.sim.sweep import PolicySweep, normalized_ipc_table, speedup_over
from repro.workloads.spec import fp_benchmarks, int_benchmarks

FIG12_POLICIES = policy_set("figure12")


def run(num_instructions=12_000, warmup=12_000, l2_bytes=256 * 1024,
        tree_cache_bytes=8 * 1024, benchmarks=None, executor=None):
    if benchmarks is None:
        benchmarks = int_benchmarks() + fp_benchmarks()
    config = (SimConfig().with_l2_size(l2_bytes)
              .with_secure(hash_tree_enabled=True,
                           hash_tree_cache_bytes=tree_cache_bytes))
    sweep = PolicySweep(benchmarks, list(FIG12_POLICIES), config=config,
                        num_instructions=num_instructions,
                        warmup=warmup).run(executor=executor)
    fig12 = normalized_ipc_table(sweep, list(FIG12_POLICIES))
    fig13 = speedup_over(sweep, "authen-then-issue",
                         ["authen-then-commit", "commit+fetch"])
    return sweep, fig12, fig13


FIG13_POLICIES = ("authen-then-commit", "commit+fetch")
TITLE = "Figures 12 and 13 -- CHTree hash-tree authentication"
FIG12_TITLE = ("Figure 12 -- normalized IPC under CHTree hash-tree "
               "authentication (256KB L2, 8KB tree cache; baseline: "
               "decryption only)")
FIG13_TITLE = "Figure 13 -- speedup over authen-then-issue, hash tree"


def emit(*, executor=None, num_instructions=12_000, warmup=12_000,
         benchmarks=None):
    """One workload run, both artifact forms: ``(text, series)``."""
    _, fig12, fig13 = run(num_instructions, warmup,
                          benchmarks=benchmarks, executor=executor)
    return render_panels("fig12", TITLE, [
        ("fig12", FIG12_TITLE, fig12, FIG12_POLICIES),
        ("fig13", FIG13_TITLE, fig13, FIG13_POLICIES)])


if __name__ == "__main__":
    print(emit()[0])
