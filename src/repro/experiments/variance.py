"""Seed-variance analysis for the headline results.

The synthetic workloads are stochastic; the paper's conclusions should
not depend on one RNG draw.  This experiment repeats the Figure 7
averages across independent seeds and reports mean and spread per
policy, so the reproduction's claims carry their own error bars.
"""

import math

from repro.config import SimConfig
from repro.policies.registry import policy_set
from repro.sim.sweep import PolicySweep

DEFAULT_POLICIES = policy_set("figure10")
DEFAULT_BENCHMARKS = ("mcf", "twolf", "swim", "mgrid")


def run(seeds=(2006, 7, 42), policies=DEFAULT_POLICIES,
        benchmarks=DEFAULT_BENCHMARKS, num_instructions=8000,
        warmup=8000, l2_bytes=256 * 1024, executor=None):
    """Per-policy normalized-IPC samples across seeds.

    ``executor`` (a :func:`repro.exec.make_executor` backend) fans each
    seed's sweep out over worker processes; results are bit-identical to
    the serial default.  Under a skipping failure policy a seed whose
    jobs all failed contributes a None sample, kept in place so samples
    stay seed-aligned across policies; mean/std are computed over the
    surviving samples (None when none survived).

    Returns ``{policy: {"samples": [...], "mean": m, "std": s}}``.
    """
    samples = {policy: [] for policy in policies}
    for seed in seeds:
        sweep = PolicySweep(list(benchmarks), list(policies),
                            config=SimConfig().with_l2_size(l2_bytes),
                            num_instructions=num_instructions,
                            warmup=warmup, seed=seed).run(
                                executor=executor)
        for policy in policies:
            samples[policy].append(sweep.average_normalized(policy))
    out = {}
    for policy, values in samples.items():
        present = [v for v in values if v is not None]
        if present:
            mean = sum(present) / len(present)
            variance = sum((v - mean) ** 2 for v in present) / len(present)
            std = math.sqrt(variance)
        else:
            mean = std = None
        out[policy] = {
            "samples": values,
            "mean": mean,
            "std": std,
        }
    return out


def ordering_is_stable(result, order=("authen-then-issue",
                                      "authen-then-commit",
                                      "authen-then-write")):
    """True when the given slow-to-fast ordering holds for every seed.

    The default omits commit+fetch: its average sits within noise of
    authen-then-issue (the paper separates them by only ~3pp), so its
    rank against issue is not seed-stable on small benchmark subsets.

    An ordering over policies none of which appear in ``result`` is
    vacuously stable: the empty intersection returns True instead of
    indexing into an empty list.
    """
    present = [p for p in order if p in result]
    if not present:
        return True
    count = len(result[present[0]]["samples"])
    for index in range(count):
        values = [result[p]["samples"][index] for p in present]
        if any(v is None for v in values):
            continue  # a skipped seed can't witness an inversion
        if any(b < a - 0.005 for a, b in zip(values, values[1:])):
            return False
    return True


TITLE = "Seed variance of normalized IPC (mean +/- std)"


def to_series(result):
    """Machine-readable twin of the variance render.

    ``mean``/``std`` series walk the policies; one ``samples:<policy>``
    series per policy walks the seed-aligned sample index (a skipped
    seed's None sample survives as JSON null).  The seed-stability
    verdict rides in ``extra``.
    """
    from repro.obs.export import build_figure_series, series_panel
    policies = sorted(result)
    stats_series = [
        {"name": name,
         "points": [{"x": policy, "y": result[policy][name]}
                    for policy in policies]}
        for name in ("mean", "std")
    ]
    sample_series = [
        {"name": "samples:%s" % policy,
         "points": [{"x": index, "y": value}
                    for index, value in
                    enumerate(result[policy]["samples"])]}
        for policy in policies
    ]
    return build_figure_series(
        "variance", TITLE,
        [series_panel("stats", TITLE, stats_series, x_label="policy"),
         series_panel("samples", "Per-seed samples", sample_series,
                      x_label="seed_index")],
        extra={"ordering_stable": ordering_is_stable(result)})


def render(result):
    def fmt(value):
        return "--" if value is None else "%.3f" % value

    lines = ["Seed variance of normalized IPC (mean +/- std):"]
    for policy, stats in sorted(result.items()):
        lines.append("  %-24s %s +/- %s   %s"
                     % (policy, fmt(stats["mean"]), fmt(stats["std"]),
                        [fmt(v) for v in stats["samples"]]))
    lines.append("ordering stable across seeds: %s"
                 % ordering_is_stable(result))
    return "\n".join(lines)


def emit(*, executor=None, num_instructions=8000, warmup=8000,
         benchmarks=None):
    """Both artifact forms: ``(text, series)`` from one :func:`run` over
    ``benchmarks`` (default :data:`DEFAULT_BENCHMARKS`)."""
    if benchmarks is None:
        benchmarks = DEFAULT_BENCHMARKS
    result = run(benchmarks=benchmarks, num_instructions=num_instructions,
                 warmup=warmup, executor=executor)
    return render(result), to_series(result)
