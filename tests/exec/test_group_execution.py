"""Grouped (decode once, evaluate N) execution pipeline tests.

Every job executes as a :class:`MultiPolicySimJob` -- a plain job as
its one-member group -- so the reference here is the legacy simulator
driven directly (trace, ``build_simulator``, ``core.run``,
``collect_metrics``), outside every executor.  Groups and plain jobs
must match it on every backend, keep the plain jobs' member job_ids,
resume member-wise from a journal, and credit the in-group trace reuse
to the cache accounting.
"""

import pytest

from repro.errors import KernelUnavailableError
from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    TraceCache,
    build_job_groups,
    build_jobs,
)
from repro.exec.executor import iter_group_results
from repro.exec.job import MultiPolicySimJob
from repro.exec.retry import STATUS_OK, STATUS_RESUMED
from repro.obs.events import COMMIT, ISSUE
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.sim.checkpoint import JobJournal
from repro.sim.metrics import collect_metrics
from repro.sim.runner import build_simulator
from repro.workloads.spec import get_profile
from repro.workloads.tracegen import generate_trace

BENCHMARKS = ("gzip", "mcf")
POLICIES = ("decrypt-only", "authen-then-commit", "authen-then-issue",
            "commit+obfuscation")   # last one: its own (re-map) walk
N, W = 800, 400

GROUPS = build_job_groups(BENCHMARKS, POLICIES,
                          num_instructions=N, warmup=W)
PLAIN = build_jobs(BENCHMARKS, POLICIES, num_instructions=N, warmup=W)


def legacy_result(job, tracer=None):
    """``job`` on the legacy simulator, driven directly."""
    trace = generate_trace(get_profile(job.benchmark), job.trace_length,
                           seed=job.seed)
    core, _ = build_simulator(job.config, job.policy, tracer=tracer)
    result = core.run(trace, warmup=job.warmup)
    result.metrics = collect_metrics(result)
    return result


@pytest.fixture(scope="module")
def plain_results():
    return {job: legacy_result(job) for job in PLAIN}


@pytest.fixture
def group_cache():
    """A trace cache holding ``GROUPS[0]``'s trace."""
    cache, group = TraceCache(), GROUPS[0]
    cache.get(group.benchmark, group.trace_length, group.seed)
    return cache


def assert_matches_oracle(results, oracle):
    by_id = {job.job_id: result for job, result in oracle.items()}
    assert {job.job_id for job in results} == set(by_id)
    for job, result in results.items():
        legacy = by_id[job.job_id]
        assert result.cycles == legacy.cycles
        assert result.stats.as_dict() == legacy.stats.as_dict()
        assert result.miss_summary == legacy.miss_summary
        assert result.metrics.as_dict() == legacy.metrics.as_dict()


class TestGroupSpec:
    def test_member_ids_match_plain_jobs(self):
        grouped_ids = [member.job_id for group in GROUPS
                       for member in group.member_jobs]
        assert grouped_ids == [job.job_id for job in PLAIN]

    def test_group_validation(self):
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ())
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ("decrypt-only", "decrypt-only"))
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ("no-such-policy",))

    def test_subset_preserves_member_ids(self):
        trimmed = GROUPS[0].subset(POLICIES[1:])
        assert [m.job_id for m in trimmed.member_jobs] == \
            [m.job_id for m in GROUPS[0].member_jobs[1:]]


class TestGroupedExecutionParity:
    def test_serial_grouped_identical_to_plain(self, plain_results):
        assert_matches_oracle(SerialExecutor().run(GROUPS), plain_results)

    def test_parallel_grouped_identical_to_plain(self, plain_results):
        with ParallelExecutor(2) as executor:
            grouped = executor.run(GROUPS)
        assert_matches_oracle(grouped, plain_results)

    def test_plain_jobs_keyed_as_submitted(self, plain_results):
        results = SerialExecutor().run(PLAIN)
        assert list(results) == PLAIN
        assert_matches_oracle(results, plain_results)

    def test_member_outcomes_recorded_individually(self):
        executor = SerialExecutor()
        executor.run(GROUPS)
        outcomes = executor.last_outcomes
        for group in GROUPS:
            for member in group.member_jobs:
                assert outcomes[member.job_id].status == STATUS_OK


class TestTracedGroup:
    def test_traced_envelope_member_emits_machine_events(self,
                                                         plain_results):
        """A tracer reaches the simulated machine in a grouped run too:
        the envelope member takes the legacy path instead of the
        event-free shared kernel."""
        policy = "authen-then-commit"
        group = build_job_groups(["gzip"], [policy],
                                 num_instructions=N, warmup=W)
        grouped_sink, plain_sink = MemorySink(), MemorySink()
        grouped = SerialExecutor().run(group, tracer=Tracer([grouped_sink]))
        legacy_result(group[0].member_jobs[0], tracer=Tracer([plain_sink]))
        for kind in (ISSUE, COMMIT):
            count = len(grouped_sink.by_kind(kind))
            assert count > 0
            assert count == len(plain_sink.by_kind(kind))
        by_id = {job.job_id: result for job, result
                 in plain_results.items()}
        (member, result), = grouped.items()
        assert result.cycles == by_id[member.job_id].cycles


class TestEvaluationPath:
    """Each evaluated member records the path that produced it."""

    def test_obfuscating_member_native(self):
        """The obfuscating member replays its own walk, natively too."""
        group, = build_job_groups(
            ["gzip"], ["authen-then-commit", "commit+obfuscation"],
            num_instructions=N, warmup=W)
        paths = {member.policy: result.accounting["path"]
                 for member, result in iter_group_results(group)}
        assert paths == {"authen-then-commit": "native",
                         "commit+obfuscation": "native"}

    def test_hash_tree_group_walks_once_per_structure(self, monkeypatch):
        """Under the Fig. 12 tree, decrypt-only walks without the tree
        and the authenticating members share one tree walk: two walks,
        every member native and equal to the legacy simulator."""
        from repro.config import SimConfig
        from repro.cpu import prepass as walks

        walked = []
        build = walks.build_prepass

        def counting_build(trace, config, **kwargs):
            walked.append(config.secure.hash_tree_enabled)
            return build(trace, config, **kwargs)

        monkeypatch.setattr(walks, "build_prepass", counting_build)
        config = SimConfig().with_secure(hash_tree_enabled=True)
        group, = build_job_groups(
            ["mcf"], ["decrypt-only", "authen-then-commit",
                      "authen-then-issue"],
            config=config, num_instructions=N, warmup=W)
        results = dict(iter_group_results(group))
        assert sorted(walked) == [False, True]
        assert {r.accounting["path"] for r in results.values()} \
            == {"native"}
        assert_matches_oracle(results, {member: legacy_result(member)
                                        for member in results})

    def test_traced_run_is_legacy(self):
        group, = build_job_groups(["gzip"], ["authen-then-commit"],
                                  num_instructions=N, warmup=W)
        (_member, result), = iter_group_results(
            group, tracer=Tracer([MemorySink()]))
        assert result.accounting["path"] == "legacy"

    def test_no_compiler_raises_the_load_error(self, group_cache,
                                               no_compiler):
        """Without a compiler neither the generator (an empty cache) nor
        the walk (a cached trace) runs, and no member falls back to the
        legacy simulator."""
        for cache in (TraceCache(), group_cache):
            with pytest.raises(KernelUnavailableError,
                               match="compile `false"):
                list(iter_group_results(GROUPS[0], cache=cache))


class TestGroupResume:
    def test_journaled_members_resume(self, tmp_path, plain_results):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        # Pre-seed the journal with half of the first group's members,
        # as a plain per-job sweep would have written them.
        seeded = GROUPS[0].member_jobs[:2]
        for member in seeded:
            journal.record(member, plain_results[
                next(j for j in plain_results if j.job_id
                     == member.job_id)])
        executor = SerialExecutor()
        results = executor.run(GROUPS, journal=JobJournal(path))
        # Full result set comes back...
        assert {job.job_id for job in results} == \
            {job.job_id for job in PLAIN}
        # ...but only the unseeded members were executed.
        seeded_ids = {member.job_id for member in seeded}
        for job_id, outcome in executor.last_outcomes.items():
            expected = (STATUS_RESUMED if job_id in seeded_ids
                        else STATUS_OK)
            assert outcome.status == expected
        # Resumed results are bit-identical to a fresh run.
        by_id = {job.job_id: result for job, result
                 in plain_results.items()}
        for member, result in results.items():
            assert result.cycles == by_id[member.job_id].cycles

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plain_jobs_resume_member_wise(self, tmp_path, plain_results,
                                           workers):
        """Plain jobs take the group path, journal resume included:
        journaled jobs come back from disk, the rest execute, and both
        match the oracle."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        seeded = PLAIN[::3]
        for job in seeded:
            journal.record(job, plain_results[job])
        executor = (SerialExecutor() if workers == 1
                    else ParallelExecutor(workers))
        with executor:
            results = executor.run(PLAIN, journal=JobJournal(path))
        seeded_ids = {job.job_id for job in seeded}
        assert {job_id: outcome.status for job_id, outcome
                in executor.last_outcomes.items()} == {
            job.job_id: (STATUS_RESUMED if job.job_id in seeded_ids
                         else STATUS_OK) for job in PLAIN}
        assert_matches_oracle(results, plain_results)
        assert JobJournal(path).completed_ids == \
            {job.job_id for job in PLAIN}

    def test_rerun_after_full_journal_executes_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(GROUPS, journal=JobJournal(path))
        executor = SerialExecutor()
        results = executor.run(GROUPS, journal=JobJournal(path))
        assert len(results) == len(PLAIN)
        assert all(outcome.status == STATUS_RESUMED
                   for outcome in executor.last_outcomes.values())


class TestGroupCacheAccounting:
    def test_one_generation_n_minus_one_hits(self):
        cache = TraceCache()
        group = GROUPS[0]
        SerialExecutor(cache=cache).run([group])
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(group.policies) - 1
        assert stats["group_reuses"] == len(group.policies) - 1
        assert stats["hit_rate"] == pytest.approx(
            (len(group.policies) - 1) / len(group.policies))

    def test_fresh_cache_stats_no_division_by_zero(self):
        assert TraceCache().stats()["hit_rate"] == 0.0

    def test_member_accounting_marks_reuse(self):
        cache = TraceCache()
        group = GROUPS[0]
        results = SerialExecutor(cache=cache).run([group])
        by_policy = {member.policy: result
                     for member, result in results.items()}
        first = by_policy[group.policies[0]]
        assert first.accounting["cache_hit"] is False
        for policy in group.policies[1:]:
            accounting = by_policy[policy].accounting
            assert accounting["cache_hit"] is True
            assert accounting["tracegen_seconds"] == 0.0
