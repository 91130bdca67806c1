"""SPEC2000-like benchmark profiles.

Each profile parameterises the synthetic trace generator with the
characteristics that drive the paper's results: data footprint (L2 miss
exposure), the memory access pattern mix (streaming vs random vs
dependent pointer-chasing -- the last is what authen-then-fetch
serialises), store intensity (authen-then-write pressure), branch
behaviour, and available ILP (how much latency the window can hide).

Values are drawn from the published characterisations of the SPEC2000
suite (memory-bound: mcf, art, swim, mgrid, ammp, applu; pointer-chasers:
mcf, parser, ammp; branchy: gcc, parser, twolf, vpr).  They are *shape*
parameters, not measurements; see DESIGN.md.
"""

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical description of one benchmark."""

    name: str
    suite: str                 # "int" | "fp"
    footprint_bytes: int       # cold data region size
    code_bytes: int            # instruction footprint
    load_fraction: float
    store_fraction: float
    branch_fraction: float
    fp_fraction: float         # FPU ops (0 for INT)
    mul_fraction: float
    hot_fraction: float        # accesses hitting a small hot set
    stream_fraction: float     # cold accesses that stream (spatial reuse)
    chase_fraction: float      # loads whose address depends on a load
    mispredict_rate: float     # per-branch mispredict probability
    dependency_depth: int      # how far back sources reach (ILP proxy)

    def __post_init__(self):
        total = (self.load_fraction + self.store_fraction
                 + self.branch_fraction + self.fp_fraction
                 + self.mul_fraction)
        if total >= 1.0:
            raise ValueError("%s: op fractions sum to %.2f >= 1"
                             % (self.name, total))
        for field in ("hot_fraction", "stream_fraction", "chase_fraction",
                      "mispredict_rate"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s: %s out of [0,1]" % (self.name, field))
        if self.code_bytes <= 0:
            raise ValueError("%s: code_bytes must be positive" % self.name)
        for field in ("footprint_bytes", "dependency_depth"):
            if getattr(self, field) < 0:
                raise ValueError("%s: %s is negative" % (self.name, field))


def _p(name, suite, fp_mb, code_kb, loads, stores, branches, fp, mul, hot,
       stream, chase, mispred, depth):
    return BenchmarkProfile(
        name=name, suite=suite,
        footprint_bytes=int(fp_mb * MB), code_bytes=code_kb * KB,
        load_fraction=loads, store_fraction=stores,
        branch_fraction=branches, fp_fraction=fp, mul_fraction=mul,
        hot_fraction=hot, stream_fraction=stream, chase_fraction=chase,
        mispredict_rate=mispred, dependency_depth=depth,
    )


#: The 18 high-memory-throughput SPEC2000 benchmarks of Section 5.1.
SPEC2000_PROFILES = {
    p.name: p
    for p in (
        # --- INT ------------------------------------------------------
        _p("bzip2",  "int", 4,   24,  0.26, 0.11, 0.12, 0.00, 0.01,
           0.85, 0.70, 0.05, 0.07, 12),
        _p("gap",    "int", 6,   32,  0.25, 0.09, 0.14, 0.00, 0.02,
           0.95, 0.45, 0.12, 0.06, 10),
        _p("gcc",    "int", 4,   96,  0.24, 0.12, 0.16, 0.00, 0.01,
           0.94, 0.40, 0.10, 0.09, 8),
        _p("gzip",   "int", 2,   16,  0.22, 0.10, 0.12, 0.00, 0.01,
           0.985, 0.75, 0.03, 0.06, 14),
        _p("mcf",    "int", 24,  16,  0.34, 0.09, 0.17, 0.00, 0.00,
           0.82, 0.10, 0.40, 0.10, 6),
        _p("parser", "int", 5,   48,  0.26, 0.10, 0.17, 0.00, 0.01,
           0.94, 0.25, 0.28, 0.09, 7),
        _p("twolf",  "int", 2,   32,  0.27, 0.09, 0.15, 0.00, 0.02,
           0.85, 0.20, 0.18, 0.11, 7),
        _p("vpr",    "int", 2.5, 24,  0.28, 0.10, 0.14, 0.00, 0.02,
           0.85, 0.25, 0.15, 0.10, 8),
        # --- FP -------------------------------------------------------
        _p("ammp",   "fp",  10,  24,  0.28, 0.09, 0.07, 0.22, 0.01,
           0.82, 0.15, 0.30, 0.04, 6),
        _p("applu",  "fp",  12,  32,  0.25, 0.12, 0.03, 0.28, 0.01,
           0.92, 0.85, 0.02, 0.02, 14),
        _p("art",    "fp",  8,   12,  0.30, 0.08, 0.09, 0.24, 0.00,
           0.9, 0.55, 0.06, 0.03, 12),
        _p("equake", "fp",  10,  24,  0.29, 0.08, 0.06, 0.24, 0.01,
           0.92, 0.60, 0.10, 0.04, 10),
        _p("facerec","fp",  6,   24,  0.26, 0.09, 0.05, 0.26, 0.01,
           0.96, 0.70, 0.04, 0.03, 14),
        _p("galgel", "fp",  6,   24,  0.27, 0.10, 0.04, 0.28, 0.01,
           0.96, 0.75, 0.03, 0.03, 14),
        _p("lucas",  "fp",  12,  16,  0.24, 0.11, 0.02, 0.30, 0.01,
           0.92, 0.80, 0.02, 0.02, 14),
        _p("mesa",   "fp",  3,   48,  0.24, 0.11, 0.08, 0.22, 0.02,
           0.97, 0.55, 0.05, 0.05, 12),
        _p("mgrid",  "fp",  16,  16,  0.30, 0.10, 0.02, 0.28, 0.01,
           0.82, 0.88, 0.02, 0.02, 14),
        _p("swim",   "fp",  16,  12,  0.27, 0.13, 0.02, 0.28, 0.01,
           0.88, 0.90, 0.01, 0.02, 14),
    )
}


def get_profile(name):
    """Look up a benchmark profile by name."""
    try:
        return SPEC2000_PROFILES[name]
    except KeyError:
        raise KeyError(
            "unknown benchmark %r (known: %s)"
            % (name, ", ".join(sorted(SPEC2000_PROFILES)))
        ) from None


def int_benchmarks():
    """INT benchmark names, sorted."""
    return sorted(p.name for p in SPEC2000_PROFILES.values()
                  if p.suite == "int")


def fp_benchmarks():
    """FP benchmark names, sorted."""
    return sorted(p.name for p in SPEC2000_PROFILES.values()
                  if p.suite == "fp")
