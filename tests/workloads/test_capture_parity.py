"""Captured-trace parity pin: the kernel against the legacy simulator on
an execution-driven trace.

``examples/execution_driven.py`` replays the committed path of a real
linked-list walk (64 nodes, 0x100 apart) on the timing model.  That
trace is unlike the synthetic SPEC-like ones: a few hundred
pointer-chasing loads, nearly every one an L2 miss.  Under each
control point, and under CBC, the native walk plus replay must equal the
legacy ``build_simulator`` + ``core.run`` on cycles and on the full
stats digest, and the legacy cycles are pinned so both paths cannot
drift together.
"""

import pytest

from repro import SimConfig, load_program, make_policy
from repro.cpu.prepass import build_prepass
from repro.cpu.shared_kernel import replay_policy
from repro.func import programs
from repro.func.machine import SecureMachine
from repro.perf.golden import stats_digest
from repro.sim.runner import build_simulator, run_trace
from repro.workloads.capture import capture_trace

#: Legacy cycles of the list-walk capture under each control point.
PINNED_CYCLES = {
    "decrypt-only": 10246,
    "authen-then-issue": 15271,
    "authen-then-commit": 10618,
    "authen-then-write": 10566,
    "commit+fetch": 14730,
    "commit+obfuscation": 10921,
}


@pytest.fixture(scope="module")
def list_walk():
    machine = SecureMachine(make_policy("decrypt-only"))
    load_program(machine, programs.LIST_WALK,
                 data=programs.list_walk_data(nodes=64, stride=0x100))
    return capture_trace(machine, max_steps=20_000, name="list-walk")


def _digest(result):
    return stats_digest(result.stats.as_dict(), result.miss_summary)


@pytest.mark.parametrize("policy_name", sorted(PINNED_CYCLES))
def test_legacy_cycles_pinned(list_walk, policy_name):
    core, _ = build_simulator(SimConfig(), policy_name)
    assert core.run(list_walk).cycles == PINNED_CYCLES[policy_name]


@pytest.mark.parametrize("policy_name", sorted(PINNED_CYCLES))
def test_kernel_equals_legacy(list_walk, policy_name):
    config = SimConfig()
    policy = make_policy(policy_name)
    core, _ = build_simulator(config, policy_name)
    legacy = core.run(list_walk)
    prepass = build_prepass(list_walk, config.for_policy(policy))
    kernel = replay_policy(prepass, policy, config)
    assert kernel.cycles == legacy.cycles
    assert _digest(kernel) == _digest(legacy)


def test_run_trace_takes_kernel(list_walk):
    result = run_trace(list_walk, SimConfig(), "authen-then-commit")
    assert result.accounting["path"] == "native"
    assert result.cycles == PINNED_CYCLES["authen-then-commit"]


def test_cbc_run_trace_takes_kernel(list_walk):
    config = SimConfig().with_secure(encryption_mode="cbc")
    result = run_trace(list_walk, config, "authen-then-commit")
    assert result.accounting["path"] == "native"
    core, _ = build_simulator(config, "authen-then-commit")
    legacy = core.run(list_walk)
    assert result.cycles == legacy.cycles
    assert _digest(result) == _digest(legacy)
