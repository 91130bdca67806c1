"""Experiment drivers: one module per table/figure of the paper.

Every module exposes a ``run(...)`` returning plain data structures and a
``render(...)`` producing the text table, so the benchmark harness, the
examples and EXPERIMENTS.md all share one source of truth.

Scale note: the paper simulates 400M-instruction SimPoint windows; these
drivers default to tens of thousands of trace instructions (pure-Python
cycle accounting).  Pass larger ``num_instructions`` for tighter numbers.
"""

from repro._lazy import lazy_namespace

#: Every artifact ``repro figures`` regenerates, in regeneration order.
#: :data:`repro.experiments.figures.ARTIFACTS` is built from it, and the
#: figure server reads it without importing a driver.  Names match the
#: single-figure CLI subcommands (fig10 renders Figures 10 and 11; fig12
#: renders Figures 12 and 13).
ARTIFACT_NAMES = ("table1", "table2", "table3", "fig6", "fig7", "fig8",
                  "fig9", "fig10", "fig12", "ablations", "variance",
                  "sensitivity")

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    __name__: ("table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9",
               "fig10_11", "fig12_13", "ablations", "sensitivity",
               "variance"),
})
__all__.append("ARTIFACT_NAMES")
