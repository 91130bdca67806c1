"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes ``emit(...)``, which runs its artifact's workload
once and returns ``(text, series)``: the text table and its
machine-readable figure-series twin.  ``repro figures``, the
single-figure CLI commands, the examples and EXPERIMENTS.md all render
through it, so they share one source of truth.  A driver that runs
simulation jobs takes the keywords ``executor``, ``num_instructions``,
``warmup`` and ``benchmarks`` (None: its own default set); the
:data:`ANALYTIC` ones take no scale.  Most drivers also expose
``run(...)``, which returns the plain data behind the table.

Scale note: the paper simulates 400M-instruction SimPoint windows; these
drivers default to tens of thousands of trace instructions.  Pass larger
``num_instructions`` for tighter numbers.
"""

from repro._lazy import lazy_namespace

#: Every artifact ``repro figures`` regenerates, in regeneration order,
#: mapped to the name of its driver module.
#: :data:`repro.experiments.figures.ARTIFACTS` is built from it, and the
#: figure server reads the names without importing a driver.  Names
#: match the single-figure CLI subcommands (fig10 renders Figures 10 and
#: 11; fig12 renders Figures 12 and 13).
DRIVERS = {"table1": "table1", "table2": "table2", "table3": "table3",
           "fig6": "fig6", "fig7": "fig7", "fig8": "fig8", "fig9": "fig9",
           "fig10": "fig10_11", "fig12": "fig12_13",
           "ablations": "ablations", "variance": "variance",
           "sensitivity": "sensitivity"}
ARTIFACT_NAMES = tuple(DRIVERS)
#: The artifacts computed from analytic models: their ``emit`` runs no
#: jobs, so it takes neither an executor nor a scale.
ANALYTIC = ("table1", "table2", "table3", "fig6")

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    __name__: ("table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9",
               "fig10_11", "fig12_13", "ablations", "sensitivity",
               "variance"),
})
__all__ += ["DRIVERS", "ARTIFACT_NAMES", "ANALYTIC"]
