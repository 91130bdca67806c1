"""Picklable simulation job specs.

A :class:`SimJob` names one point of the benchmark x policy x config
Cartesian product the paper's figures are built from: which trace to
generate, which policy to gate with, and at what scale.  Jobs are frozen
(hashable, picklable) so they can cross process boundaries and key
result dictionaries, and each job carries a stable content-derived
``job_id`` so checkpoints written by one process can be resumed by
another.
"""

import dataclasses
import hashlib
import json
from functools import cached_property

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.policies.registry import available_policies
from repro.workloads.spec import get_profile


@dataclasses.dataclass(frozen=True)
class SimJob:
    """One (benchmark, policy, config) simulation at a fixed scale.

    ``num_instructions`` counts *measured* instructions; the generated
    trace is ``num_instructions + warmup`` long and the first ``warmup``
    instructions warm caches without being reported (matching
    :meth:`~repro.cpu.core.TimestampCore.run`).  ``seed`` defaults to the
    config's seed.
    """

    benchmark: str
    policy: str
    config: SimConfig = dataclasses.field(default_factory=SimConfig)
    num_instructions: int = 20_000
    warmup: int = 0
    seed: int = None

    def __post_init__(self):
        if self.seed is None:
            object.__setattr__(self, "seed", self.config.seed)
        if not isinstance(self.policy, str):
            raise ConfigError(
                "SimJob.policy must be a registry name (got %r); policy "
                "objects are per-run state and cannot cross processes"
                % (self.policy,))
        if self.policy not in available_policies():
            raise ConfigError("unknown policy %r" % self.policy)
        get_profile(self.benchmark)  # raises for unknown benchmarks
        if self.num_instructions < 0 or self.warmup < 0:
            raise ConfigError("instruction counts must be non-negative")

    @property
    def trace_length(self):
        return self.num_instructions + self.warmup

    @cached_property
    def job_id(self):
        """Stable 16-hex-digit content hash of the full job spec.

        Derived from a canonical JSON encoding of every field (the config
        flattened to plain data), so the id survives pickling, process
        boundaries and interpreter restarts -- which is what lets a
        checkpoint journal from a killed sweep be trusted by the rerun.
        """
        payload = {
            "benchmark": self.benchmark,
            "policy": self.policy,
            "config": dataclasses.asdict(self.config),
            "num_instructions": self.num_instructions,
            "warmup": self.warmup,
            "seed": self.seed,
        }
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def as_group(self):
        """This job as the one-member :class:`MultiPolicySimJob` every
        executor runs it as; the group's only member equals ``self``."""
        return MultiPolicySimJob(
            benchmark=self.benchmark, policies=(self.policy,),
            config=self.config, num_instructions=self.num_instructions,
            warmup=self.warmup, seed=self.seed)

    def __repr__(self):
        return "SimJob(%s/%s, n=%d+%d, seed=%s, id=%s)" % (
            self.benchmark, self.policy, self.num_instructions,
            self.warmup, self.seed, self.job_id)


@dataclasses.dataclass(frozen=True)
class MultiPolicySimJob:
    """One decoded trace fanned out to N policy evaluations.

    The grouped unit of work of the shared-pass pipeline: one benchmark
    trace at one config/scale, evaluated under every policy in
    ``policies`` inside a single worker.  The group itself is never
    journaled -- each member evaluation is recorded as the plain
    :class:`SimJob` it replaces, under the *identical* content-hash
    ``job_id``, so journals, resume, retry accounting and telemetry are
    oblivious to grouping.  It is the only unit executors run: a plain
    job executes as its one-member group (:meth:`SimJob.as_group`).
    """

    benchmark: str
    policies: tuple
    config: SimConfig = dataclasses.field(default_factory=SimConfig)
    num_instructions: int = 20_000
    warmup: int = 0
    seed: int = None

    def __post_init__(self):
        if self.seed is None:
            object.__setattr__(self, "seed", self.config.seed)
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ConfigError("MultiPolicySimJob needs at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ConfigError(
                "duplicate policies in group: %r" % (self.policies,))
        for policy in self.policies:
            if not isinstance(policy, str):
                raise ConfigError(
                    "MultiPolicySimJob.policies must be registry names "
                    "(got %r)" % (policy,))
            if policy not in available_policies():
                raise ConfigError("unknown policy %r" % policy)
        get_profile(self.benchmark)
        if self.num_instructions < 0 or self.warmup < 0:
            raise ConfigError("instruction counts must be non-negative")

    @property
    def policy(self):
        """Display/fault-key alias: the member policies, comma-joined."""
        return ",".join(self.policies)

    @property
    def trace_length(self):
        return self.num_instructions + self.warmup

    @cached_property
    def member_jobs(self):
        """The plain per-policy :class:`SimJob` each member stands for.

        Members carry the exact ids a one-job-per-policy sweep would
        have produced -- the journal-compatibility contract.
        """
        return tuple(
            SimJob(benchmark=self.benchmark, policy=policy,
                   config=self.config,
                   num_instructions=self.num_instructions,
                   warmup=self.warmup, seed=self.seed)
            for policy in self.policies
        )

    @cached_property
    def job_id(self):
        """Content hash of the group spec (progress/retry bookkeeping).

        Never journaled -- only member ids reach the journal -- so the
        encoding is free to differ from :class:`SimJob`'s.
        """
        payload = {
            "group": True,
            "benchmark": self.benchmark,
            "policies": list(self.policies),
            "config": dataclasses.asdict(self.config),
            "num_instructions": self.num_instructions,
            "warmup": self.warmup,
            "seed": self.seed,
        }
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def subset(self, policies):
        """The same group trimmed to ``policies`` (resume trimming)."""
        return MultiPolicySimJob(
            benchmark=self.benchmark, policies=tuple(policies),
            config=self.config, num_instructions=self.num_instructions,
            warmup=self.warmup, seed=self.seed)

    def __repr__(self):
        return "MultiPolicySimJob(%s x %d policies, n=%d+%d, id=%s)" % (
            self.benchmark, len(self.policies), self.num_instructions,
            self.warmup, self.job_id)


def build_jobs(benchmarks, policies, config=None, num_instructions=20_000,
               warmup=0, seed=None):
    """The benchmark-major job list for a sweep (deterministic order)."""
    config = config or SimConfig()
    return [
        SimJob(benchmark=benchmark, policy=policy, config=config,
               num_instructions=num_instructions, warmup=warmup, seed=seed)
        for benchmark in benchmarks
        for policy in policies
    ]


def build_job_groups(benchmarks, policies, config=None,
                     num_instructions=20_000, warmup=0, seed=None):
    """One :class:`MultiPolicySimJob` per benchmark (decode once, eval N).

    The grouped counterpart of :func:`build_jobs`: same benchmark-major
    order, same member job_ids, one decoded trace per group.
    """
    config = config or SimConfig()
    return [
        MultiPolicySimJob(benchmark=benchmark, policies=tuple(policies),
                          config=config, num_instructions=num_instructions,
                          warmup=warmup, seed=seed)
        for benchmark in benchmarks
    ]
