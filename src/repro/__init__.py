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

from repro._lazy import lazy_namespace

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.config": ("SimConfig", "CacheConfig", "CoreConfig", "DramConfig",
                     "SecureConfig", "table3_parameters"),
    "repro.errors": ("ReproError", "ConfigError", "IsaError",
                     "IntegrityError", "SimulationError"),
    "repro.policies.registry": ("make_policy", "available_policies",
                                "POLICY_NAMES", "FIGURE7_POLICIES"),
    "repro.sim.runner": ("run_trace", "run_benchmark"),
    "repro.sim.sweep": ("PolicySweep",),
    "repro.func.machine": ("SecureMachine",),
    "repro.func.loader": ("load_program",),
    "repro.workloads.spec": ("SPEC2000_PROFILES", "get_profile",
                             "int_benchmarks", "fp_benchmarks"),
    "repro.workloads.tracegen": ("generate_trace",),
})
__all__.append("__version__")
