"""repro -- reproduction of "Authentication Control Point and Its
Implications For Secure Processor Design" (Shi & Lee, MICRO 2006).

Public API highlights
---------------------

Timing side (performance of the authentication control points)::

    from repro import SimConfig, make_policy, run_benchmark

    result = run_benchmark("mcf", 20_000, policy="authen-then-commit")
    print(result.ipc)

Functional side (the memory-fetch side channel, end to end)::

    from repro import SecureMachine, load_program, make_policy
    from repro.attacks import PointerConversionAttack

    attack = PointerConversionAttack()
    machine, outcome = attack.run(make_policy("authen-then-commit"))

Experiments (every table/figure of the paper) live in
:mod:`repro.experiments`; see DESIGN.md for the index.
"""

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    SecureConfig,
    SimConfig,
    table3_parameters,
)
from repro.errors import (
    ConfigError,
    IntegrityError,
    IsaError,
    ReproError,
    SimulationError,
)
from repro.func.loader import load_program
from repro.func.machine import SecureMachine
from repro.policies.registry import (
    FIGURE7_POLICIES,
    POLICY_NAMES,
    available_policies,
    make_policy,
)
from repro.sim.runner import run_benchmark, run_trace
from repro.sim.sweep import PolicySweep
from repro.workloads.spec import (
    SPEC2000_PROFILES,
    fp_benchmarks,
    get_profile,
    int_benchmarks,
)
from repro.workloads.tracegen import generate_trace

__version__ = "1.0.0"

__all__ = [
    "SimConfig",
    "CacheConfig",
    "CoreConfig",
    "DramConfig",
    "SecureConfig",
    "table3_parameters",
    "ReproError",
    "ConfigError",
    "IsaError",
    "IntegrityError",
    "SimulationError",
    "make_policy",
    "available_policies",
    "POLICY_NAMES",
    "FIGURE7_POLICIES",
    "run_trace",
    "run_benchmark",
    "PolicySweep",
    "SecureMachine",
    "load_program",
    "SPEC2000_PROFILES",
    "get_profile",
    "int_benchmarks",
    "fp_benchmarks",
    "generate_trace",
    "__version__",
]
