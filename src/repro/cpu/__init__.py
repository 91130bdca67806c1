"""Out-of-order core timing model.

A one-pass *timestamp* model of an 8-wide out-of-order pipeline
(SimpleScalar-class, Table 3): each committed-path instruction flows
through fetch -> dispatch -> issue -> execute -> commit, and the model
computes the cycle each event happens under bandwidth, window (RUU/LSQ),
dependency, memory-hierarchy and **authentication-gating** constraints.

This is the standard fast alternative to cycle stepping: it preserves the
mechanisms the paper's results flow from (issue gating delays dependents;
commit gating backs up the RUU until fetch stalls; store gating fills the
store buffer; fetch gating serialises dependent misses) while being fast
enough to sweep 18 benchmarks x 9 policies in pure Python.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.cpu.branch": ("BimodalPredictor",),
    "repro.cpu.core": ("TimestampCore",),
    "repro.cpu.hierarchy": ("MemoryHierarchy",),
})
