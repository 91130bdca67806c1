"""Differential equivalence suite for the shared timestamp kernel.

The merge gate of the decode-once/evaluate-many pipeline: every
registered policy, replayed through the native (C) kernel from the
structural walk of its effective structure, must be *bit-identical* --
cycles, every StatGroup counter, the miss summary -- to the legacy
per-policy simulator on the same trace, under the default and the
hash-tree configuration, in counter mode and CBC, with and without the
stream prefetcher.  The walk and the replay need a C compiler;
without one they raise, and so does every run that would take them.
``tests/cpu/test_kernel_oracle.py`` draws the configurations.
"""

from array import array
from dataclasses import replace

import pytest

from repro import load_program
from repro.config import SimConfig
from repro.cpu import native
from repro.cpu.prepass import build_prepass
from repro.cpu.shared_kernel import replay_policy
from repro.errors import KernelUnavailableError
from repro.exec import ArtifactStore, TraceCache
from repro.exec.cache import cached_trace
from repro.exec.executor import iter_group_results
from repro.exec.job import MultiPolicySimJob
from repro.func import programs
from repro.func.machine import SecureMachine
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator, evaluate_trace
from repro.workloads.capture import capture_trace


BENCHMARKS = ("mcf", "swim")
NUM_INSTRUCTIONS = 1200
WARMUP = 400


@pytest.fixture(scope="module")
def config():
    return SimConfig()


@pytest.fixture(scope="module")
def prepasses(config):
    """One decoded prepass per benchmark, shared across every test."""
    out = {}
    for bench in BENCHMARKS:
        trace = cached_trace(bench, NUM_INSTRUCTIONS + WARMUP,
                             config.seed)
        out[bench] = (trace, build_prepass(trace, config, warmup=WARMUP))
    return out


def _legacy(config, trace, policy_name):
    core, _hierarchy = build_simulator(config, policy_name)
    return core.run(trace, warmup=WARMUP)


def _assert_replay_matches_legacy(config, bench, policy_name, walks):
    """Replay ``policy_name`` from the walk of its effective structure
    (``walks`` caches one per structure) and diff it against legacy."""
    policy = make_policy(policy_name)
    trace = cached_trace(bench, NUM_INSTRUCTIONS + WARMUP, config.seed)
    member = config.for_policy(policy)
    key = (bench, member.secure)
    if key not in walks:
        walks[key] = build_prepass(trace, member, warmup=WARMUP)
    shared = replay_policy(walks[key], policy, config, trace_name=bench)
    legacy = _legacy(config, trace, policy_name)
    assert shared.cycles == legacy.cycles
    assert shared.instructions == legacy.instructions
    assert shared.stats.as_dict() == legacy.stats.as_dict()
    assert shared.miss_summary == legacy.miss_summary


@pytest.fixture(scope="module")
def walks():
    """Walks by (benchmark, effective structure), shared across tests."""
    return {}


class TestSharedPassEquivalence:
    """Shared-pass replay == legacy simulator, for every policy."""

    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_to_legacy(self, config, walks, bench,
                                     policy_name):
        _assert_replay_matches_legacy(config, bench, policy_name, walks)

    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_hash_tree_bit_identical_to_legacy(self, walks, bench,
                                               policy_name):
        """Figs. 12/13's structure: the CHTree walk for authenticating
        policies, the plain walk for decrypt-only."""
        tree = SimConfig().with_secure(hash_tree_enabled=True)
        _assert_replay_matches_legacy(tree, bench, policy_name, walks)

    @pytest.mark.parametrize("degree", (0, 2))
    @pytest.mark.parametrize("mode", ("ctr", "cbc"))
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_every_policy_replays_natively(self, bench, mode, degree):
        """Counter mode or CBC, with or without the stream prefetcher:
        every registered policy runs on the kernel, and equals the
        legacy simulator."""
        config = replace(SimConfig(), prefetch_degree=degree).with_secure(
            encryption_mode=mode)
        trace = cached_trace(bench, NUM_INSTRUCTIONS + WARMUP, config.seed)
        names = available_policies()
        results = list(evaluate_trace(trace, config, names, warmup=WARMUP))
        assert len(results) == len(names)
        for name, shared in zip(names, results):
            assert shared.accounting["path"] == "native", name
            legacy = _legacy(config, trace, name)
            assert shared.cycles == legacy.cycles, name
            assert shared.stats.as_dict() == legacy.stats.as_dict(), name
            assert shared.miss_summary == legacy.miss_summary, name

    def test_replay_rejects_another_structure(self, prepasses, config):
        """A walk replays only for policies of its own structure."""
        _trace, prepass = prepasses["mcf"]
        with pytest.raises(ValueError, match="obfuscation"):
            replay_policy(prepass, make_policy("commit+obfuscation"),
                          config)
        for other in (config.with_secure(encryption_mode="cbc"),
                      replace(config, prefetch_degree=2)):
            with pytest.raises(ValueError, match="prefetch_degree"):
                replay_policy(prepass, make_policy("decrypt-only"), other)

    def test_prepass_reused_across_policies(self, prepasses, config):
        """One prepass serves every policy: replays do not mutate it."""
        trace, prepass = prepasses["mcf"]
        before = (list(prepass.a_pre), list(prepass.m_counter),
                  dict(prepass.miss_summary))
        for policy_name in ("decrypt-only", "authen-then-issue",
                            "authen-then-fetch-precise"):
            replay_policy(prepass, make_policy(policy_name), config)
        assert (list(prepass.a_pre), list(prepass.m_counter),
                dict(prepass.miss_summary)) == before


class TestNativeKernel:
    """The kernel's Python face: buffer caching and failure handling."""

    def test_buffers_cached_on_prepass(self, prepasses, config):
        _trace, prepass = prepasses["swim"]
        cfg = native.config_block(prepass, make_policy("decrypt-only"),
                                  config)
        native.replay(prepass, cfg)
        first = prepass._native
        native.replay(prepass, cfg)
        assert prepass._native is first

    def test_kernel_reads_the_traces_own_columns(self, config, tmp_path,
                                                 monkeypatch):
        """Generated, captured and store-loaded traces all hold
        ``array('q')`` columns, and each walk of a group and each
        replay hand the kernel the trace's own column objects."""
        store = ArtifactStore(tmp_path / "store")
        generated = cached_trace("mcf", NUM_INSTRUCTIONS + WARMUP,
                                 config.seed)
        store.save_trace(generated, "mcf", len(generated), config.seed)
        loaded = store.load_trace("mcf", len(generated), config.seed)
        machine = SecureMachine(make_policy("decrypt-only"))
        load_program(machine, programs.LIST_WALK,
                     data=programs.list_walk_data(nodes=16, stride=0x100))
        captured = capture_trace(machine, max_steps=2000)
        for trace in (generated, captured, loaded):
            assert all(type(column) is array and column.typecode == "q"
                       for column in trace.packed().columns().values())

        handed = []
        walk, replay = native.walk, native.replay

        def spy_walk(cfg, pcs, ops, addrs, *rest):
            handed.append(((pcs, ops, addrs), ("pcs", "ops", "addrs")))
            return walk(cfg, pcs, ops, addrs, *rest)

        def spy_replay(prepass, cfg):
            out = replay(prepass, cfg)
            handed.append((prepass._native[:5], ("ops", "dests", "src_off",
                                                 "src_val", "mispredicts")))
            return out

        monkeypatch.setattr(native, "walk", spy_walk)
        monkeypatch.setattr(native, "replay", spy_replay)
        cache = TraceCache()
        group = MultiPolicySimJob(
            benchmark="mcf", config=config.with_secure(hash_tree_enabled=True),
            policies=("decrypt-only", "authen-then-commit",
                      "commit+obfuscation"),
            num_instructions=NUM_INSTRUCTIONS, warmup=WARMUP)
        assert len(list(iter_group_results(group, cache=cache))) == 3
        packed = cache.get("mcf", group.trace_length, group.seed).packed()
        assert len(handed) == 6  # three structures walked, three replays
        for columns, names in handed:
            for column, name in zip(columns, names):
                assert column is getattr(packed, name), name

    def test_kernel_failure_raises(self, prepasses, config, monkeypatch):
        """A failed kernel run raises; there is no second loop to try."""

        class FailingKernel:
            @staticmethod
            def repro_replay(*args):
                return -1

        monkeypatch.setattr(native, "_lib", FailingKernel())
        with pytest.raises(MemoryError):
            replay_policy(prepasses["mcf"][1],
                          make_policy("decrypt-only"), config)


class TestKernelLoading:
    """A kernel that cannot be built fails every use, naming why."""

    def test_error_names_failed_compile(self, no_compiler):
        with pytest.raises(KernelUnavailableError) as info:
            native.native_available()
        message = str(info.value)
        assert "compile `false -O2" in message
        assert "exited with status 1" in message
        assert info.value.__cause__ is not None

    def test_replay_policy_raises_without_kernel(self, prepasses, config,
                                                 no_compiler):
        """Neither half of the pipeline has a second loop to run."""
        trace, prepass = prepasses["mcf"]
        with pytest.raises(KernelUnavailableError,
                           match="could not be built"):
            build_prepass(trace, config, warmup=WARMUP)
        with pytest.raises(KernelUnavailableError,
                           match="could not be built"):
            replay_policy(prepass, make_policy("decrypt-only"), config)
