"""End-to-end exploit tests: who leaks, who blocks (the paper's Table 2)."""

import pytest

from repro.attacks.binary_search import BinarySearchAttack
from repro.attacks.brute_force import BruteForcePageAttack
from repro.attacks.disclosing_kernel import (
    DataSpaceKernelAttack,
    DisclosingKernelAttack,
    IoKernelAttack,
    SECRET_VALUE,
)
from repro.attacks.harness import (
    ALL_ATTACKS,
    FETCH_CHANNEL_ATTACKS,
    prevents_fetch_side_channel,
    run_attack,
)
from repro.attacks.page_mask import PageMaskAttack
from repro.attacks.pointer_conversion import PointerConversionAttack
from repro.attacks.replay import ReplayAttack
from repro.policies.registry import make_policy
from repro.policies.security import TABLE2_POLICIES

WEAK = ("decrypt-only", "lazy", "authen-then-write", "authen-then-commit")
STRONG = ("authen-then-issue", "authen-then-fetch", "commit+fetch",
          "commit+obfuscation")


class TestPointerConversion:
    @pytest.mark.parametrize("policy", WEAK)
    def test_leaks_under_weak_policies(self, policy):
        attack = PointerConversionAttack()
        machine, result = attack.run(make_policy(policy))
        assert attack.leaked_secret(machine, result)

    @pytest.mark.parametrize("policy", STRONG)
    def test_blocked_under_strong_policies(self, policy):
        result = run_attack("pointer-conversion", policy)
        assert not result.leaked

    def test_authenticating_policies_detect_tamper(self):
        for policy in ("authen-then-commit", "authen-then-issue"):
            result = run_attack("pointer-conversion", policy)
            assert result.detected, policy

    def test_untampered_walk_is_clean(self):
        attack = PointerConversionAttack()
        machine = attack.build_victim(make_policy("authen-then-commit"))
        result = machine.run(2000)
        assert result.halted and not result.detected
        assert not attack.leaked_secret(machine, result)


class TestBinarySearch:
    def test_recovers_secret_under_commit(self):
        attack = BinarySearchAttack(secret=0x5A5)
        recovered, trials, detected = attack.recover(
            make_policy("authen-then-commit"), bits=12)
        assert recovered == 0x5A5
        assert trials <= 12
        assert detected  # every tampered run is flagged -- but too late

    def test_blocked_under_fetch(self):
        attack = BinarySearchAttack(secret=0x5A5)
        recovered, trials, _ = attack.recover(
            make_policy("commit+fetch"), bits=12)
        assert recovered is None
        assert trials == 1  # first probe already fails to leak

    def test_secret_bounds(self):
        with pytest.raises(ValueError):
            BinarySearchAttack(secret=-1)
        with pytest.raises(ValueError):
            BinarySearchAttack(secret=1 << 31)


class TestDisclosingKernel:
    def test_code_space_recovers_byte_buckets(self):
        attack = DisclosingKernelAttack()
        machine, result = attack.run(make_policy("authen-then-commit"))
        assert attack.leaked_secret(machine, result)
        buckets = attack.recovered_bytes(result)
        # Low byte of the secret pinned to its 32-byte bucket.
        assert buckets[0] == (SECRET_VALUE & 0xFF) // 32 * 32

    def test_data_space_variant_leaks(self):
        attack = DataSpaceKernelAttack()
        machine, result = attack.run(make_policy("authen-then-write"))
        assert attack.leaked_secret(machine, result)

    def test_io_variant_blocked_by_commit(self):
        """Section 3.2.3: authen-then-commit suffices for the I/O channel."""
        attack = IoKernelAttack()
        machine, result = attack.run(make_policy("authen-then-commit"))
        assert not attack.leaked_secret(machine, result)

    def test_io_variant_leaks_under_write(self):
        attack = IoKernelAttack()
        machine, result = attack.run(make_policy("authen-then-write"))
        assert attack.leaked_secret(machine, result)

    def test_blocked_by_issue_and_fetch(self):
        for policy in ("authen-then-issue", "authen-then-fetch"):
            attack = DisclosingKernelAttack()
            machine, result = attack.run(make_policy(policy))
            assert not attack.leaked_secret(machine, result), policy


class TestPageMask:
    def test_defeats_virtual_memory(self):
        """Figure 4's masking works even with translation enabled."""
        attack = PageMaskAttack()
        machine, result = attack.run(make_policy("authen-then-commit"))
        assert machine.use_vm
        assert attack.leaked_secret(machine, result)
        assert result.fault_log == []  # no faults: masking avoided them

    def test_blocked_under_commit_plus_fetch(self):
        attack = PageMaskAttack()
        machine, result = attack.run(make_policy("commit+fetch"))
        assert not attack.leaked_secret(machine, result)


class TestBruteForce:
    def test_fault_log_leaks_under_weak_policy(self):
        """Section 3.3: the fault log itself discloses the secret."""
        attack = BruteForcePageAttack()
        leaked, result = attack.fault_log_leak(make_policy("decrypt-only"))
        assert leaked

    def test_fault_log_silent_under_commit(self):
        attack = BruteForcePageAttack()
        leaked, result = attack.fault_log_leak(
            make_policy("authen-then-commit"))
        assert not leaked
        assert result.detected

    def test_random_tampering_eventually_translates(self):
        attack = BruteForcePageAttack(mapped_pages=64)
        trial, trials, _ = attack.random_tampering(
            make_policy("decrypt-only"), max_trials=50)
        assert trial is not None


class TestReplay:
    def test_flat_mac_accepts_replay(self):
        effective, result = ReplayAttack().run(
            make_policy("authen-then-commit"), hash_tree=False)
        assert effective
        assert not result.detected

    def test_hash_tree_rejects_replay(self):
        effective, result = ReplayAttack().run(
            make_policy("authen-then-commit"), hash_tree=True)
        assert not effective
        assert result.detected


class TestTable2Empirical:
    """The harness-level reproduction of Table 2, column 1."""

    @pytest.mark.parametrize("policy", TABLE2_POLICIES)
    def test_empirical_matches_analytical(self, policy):
        expected = make_policy(policy).security.prevents_fetch_side_channel
        assert prevents_fetch_side_channel(policy) == expected

    def test_attack_roster(self):
        assert len(FETCH_CHANNEL_ATTACKS) == 5

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            run_attack("rowhammer", "authen-then-commit")


# Every cell of ALL_ATTACKS x TABLE2_POLICIES as (leaked, detected,
# details).  Only LEAK/blocked reaches the Table 2 series, so this pin is
# what catches a change to a crypto primitive or the functional machine
# that moves detection or the binary search's trial count.
_BLOCKED = (False, True, {})
_LEAKED = (True, True, {})
_CONTROL_FLOW_LEAK = (True, False, {})
_SEARCH_BLOCKED = (False, True, {"recovered": None, "trials": 1})
_SEARCH_RECOVERED = (True, True, {"recovered": 0x5A5, "trials": 12})

ATTACK_MATRIX = {
    "authen-then-issue": {
        "pointer-conversion": _BLOCKED,
        "binary-search": _SEARCH_BLOCKED,
        "disclosing-kernel": _BLOCKED,
        "disclosing-kernel-data": _BLOCKED,
        "page-mask": _BLOCKED,
        "disclosing-kernel-io": _BLOCKED,
        "cbc-pointer-conversion": _BLOCKED,
        "control-flow": _CONTROL_FLOW_LEAK,
    },
    "authen-then-write": {
        "pointer-conversion": _LEAKED,
        "binary-search": _SEARCH_RECOVERED,
        "disclosing-kernel": _LEAKED,
        "disclosing-kernel-data": _LEAKED,
        "page-mask": _LEAKED,
        "disclosing-kernel-io": _LEAKED,
        "cbc-pointer-conversion": _LEAKED,
        "control-flow": _CONTROL_FLOW_LEAK,
    },
    "authen-then-commit": {
        "pointer-conversion": _LEAKED,
        "binary-search": _SEARCH_RECOVERED,
        "disclosing-kernel": _LEAKED,
        "disclosing-kernel-data": _LEAKED,
        "page-mask": _LEAKED,
        "disclosing-kernel-io": _BLOCKED,
        "cbc-pointer-conversion": _LEAKED,
        "control-flow": _CONTROL_FLOW_LEAK,
    },
    "commit+fetch": {
        "pointer-conversion": _BLOCKED,
        "binary-search": _SEARCH_BLOCKED,
        "disclosing-kernel": _BLOCKED,
        "disclosing-kernel-data": _BLOCKED,
        "page-mask": _BLOCKED,
        "disclosing-kernel-io": _BLOCKED,
        "cbc-pointer-conversion": _BLOCKED,
        "control-flow": _CONTROL_FLOW_LEAK,
    },
    "commit+obfuscation": {
        "pointer-conversion": _BLOCKED,
        "binary-search": _SEARCH_BLOCKED,
        "disclosing-kernel": _BLOCKED,
        "disclosing-kernel-data": _BLOCKED,
        "page-mask": _BLOCKED,
        "disclosing-kernel-io": _BLOCKED,
        "cbc-pointer-conversion": _BLOCKED,
        "control-flow": (False, False, {}),
    },
}


class TestAttackMatrixPin:
    def test_matrix_covers_every_cell(self):
        assert tuple(ATTACK_MATRIX) == TABLE2_POLICIES
        for row in ATTACK_MATRIX.values():
            assert tuple(row) == ALL_ATTACKS

    @pytest.mark.parametrize("policy,attack", [
        (policy, attack)
        for policy in ATTACK_MATRIX for attack in ATTACK_MATRIX[policy]
    ])
    def test_outcome_pinned(self, policy, attack):
        result = run_attack(attack, policy)
        outcome = (result.leaked, result.detected, result.details)
        assert outcome == ATTACK_MATRIX[policy][attack]
