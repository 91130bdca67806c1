"""Bench: regenerate Figure 6 (authen-then-fetch vs authen-then-issue
timeline for two dependent fetches)."""

from conftest import once

from repro.experiments import fig6


def test_fig6(benchmark):
    timelines = once(benchmark, lambda: fig6.run(compute_latency=30))
    print("\n" + fig6.emit(compute_latency=30)[0])
    assert (timelines["authen-then-fetch"].finish
            <= timelines["authen-then-issue"].finish)
