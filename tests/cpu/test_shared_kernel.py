"""Differential equivalence suite for the shared timestamp kernel.

The merge gate of the decode-once/evaluate-many pipeline: every
registered policy, replayed through the native (C) kernel from the
structural walk of its effective structure, must be *bit-identical* --
cycles, every StatGroup counter, the miss summary -- to the legacy
per-policy simulator on the same trace, under the default and the
hash-tree configuration.  The walk and the replay need a C compiler;
without one the suite skips, and the grouped executor runs the legacy
simulator instead (``tests/exec/test_group_execution.py`` covers that
path).  ``tests/cpu/test_kernel_oracle.py`` draws the configurations.
"""

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.cpu.prepass import build_prepass, prepass_supported
from repro.cpu.shared_kernel import replay_policy
from repro.exec.cache import cached_trace
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator

needs_kernel = pytest.mark.skipif(
    not native.native_available(),
    reason="replay_policy needs the native kernel (no C compiler)")

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

    @needs_kernel
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_to_legacy(self, config, walks, bench,
                                     policy_name):
        _assert_replay_matches_legacy(config, bench, policy_name, walks)

    @needs_kernel
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_hash_tree_bit_identical_to_legacy(self, walks, bench,
                                               policy_name):
        """Figs. 12/13's structure: the CHTree walk for authenticating
        policies, the plain walk for decrypt-only."""
        tree = SimConfig().with_secure(hash_tree_enabled=True)
        _assert_replay_matches_legacy(tree, bench, policy_name, walks)

    def test_envelope_covers_every_policy(self):
        """Every registered policy replays, under every structure the
        figures use: only CBC and prefetching leave the envelope."""
        for config in (SimConfig(),
                       SimConfig().with_secure(hash_tree_enabled=True),
                       SimConfig().with_secure(obfuscation_enabled=True)):
            for name in available_policies():
                assert prepass_supported(
                    config.for_policy(make_policy(name))), name
        assert not prepass_supported(
            SimConfig().with_secure(encryption_mode="cbc"))

    def test_default_config_inside_envelope(self, config):
        assert prepass_supported(config)

    @needs_kernel
    def test_replay_rejects_another_structure(self, prepasses, config):
        """A walk replays only for policies of its own structure."""
        _trace, prepass = prepasses["mcf"]
        with pytest.raises(ValueError, match="obfuscation"):
            replay_policy(prepass, make_policy("commit+obfuscation"),
                          config)

    @needs_kernel
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


@needs_kernel
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

    def test_like_walk_shares_trace_columns(self, prepasses, config):
        """Walks of one trace built ``like=`` each other convert the
        trace once; a walk of another trace is refused."""
        trace, prepass = prepasses["mcf"]
        obfuscating = make_policy("commit+obfuscation")
        other = build_prepass(trace, config.for_policy(obfuscating),
                              warmup=WARMUP, like=prepass)
        replay_policy(prepass, make_policy("decrypt-only"), config)
        replay_policy(other, obfuscating, config)
        assert other.trace_columns is prepass.trace_columns
        assert other._native[0] is prepass._native[0]
        with pytest.raises(ValueError, match="same trace"):
            build_prepass(prepasses["swim"][0], config, warmup=WARMUP,
                          like=prepass)

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
    """``REPRO_NATIVE`` values and the errors of a kernel that cannot load."""

    def test_require_error_names_failed_compile(self, no_compiler,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "require")
        with pytest.raises(RuntimeError) as info:
            native.native_available()
        message = str(info.value)
        assert "REPRO_NATIVE=require" in message
        assert "compile `false -O2" in message
        assert "exited with status 1" in message
        assert info.value.__cause__ is not None

    def test_auto_reports_unavailable(self, no_compiler):
        assert not native.native_available()

    def test_replay_policy_raises_without_kernel(self, no_compiler,
                                                 config):
        """The walk is native too: without a kernel neither half runs."""
        trace = cached_trace("mcf", NUM_INSTRUCTIONS + WARMUP, config.seed)
        with pytest.raises(RuntimeError, match="could not be built"):
            replay_policy(build_prepass(trace, config, warmup=WARMUP),
                          make_policy("decrypt-only"), config)

    @pytest.mark.parametrize("value", ["0", "off", "force"])
    def test_other_values_rejected(self, monkeypatch, value):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_NATIVE", value)
        with pytest.raises(ConfigError, match="'auto'.*'require'"):
            native.native_available()

    @pytest.mark.parametrize("value", ["", "auto"])
    def test_auto_spellings_accepted(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        native.native_available()
