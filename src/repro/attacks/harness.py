"""Attack harness: run every exploit against every policy and score it.

``empirical_security_matrix`` reproduces the first column of the paper's
Table 2 *by experiment*: a policy "prevents active fetch address
side-channel disclosure" iff none of the fetch-channel exploits leaks
under it.  The remaining Table 2 columns are structural properties of the
policies (asserted directly from the policy objects and validated by the
functional machine's store/commit gating in tests).
"""

from dataclasses import dataclass, field

from repro.attacks.binary_search import BinarySearchAttack
from repro.attacks.disclosing_kernel import (
    DataSpaceKernelAttack,
    DisclosingKernelAttack,
    IoKernelAttack,
)
from repro.attacks.page_mask import PageMaskAttack
from repro.attacks.pointer_conversion import PointerConversionAttack
from repro.policies.registry import make_policy
# Re-exported: the names are defined with Table 2's policies.
from repro.policies.security import (  # noqa: F401
    ALL_ATTACKS,
    FETCH_CHANNEL_ATTACKS,
)
from repro.secure.metadata import MetadataLayout
from repro.secure.remap import AddressObfuscator
from repro.util.rng import DeterministicRng


@dataclass
class AttackResult:
    """Outcome of one (attack, policy) run."""

    attack: str
    policy: str
    leaked: bool            # secret reached an adversary-visible channel
    detected: bool          # integrity exception was raised
    details: dict = field(default_factory=dict)


def _make_obfuscator(machine_bytes=1 << 24):
    layout = MetadataLayout(protected_bytes=machine_bytes, line_bytes=32)
    rng = DeterministicRng(99).stream("attack-remap")
    return AddressObfuscator(layout, rng, chunk_bytes=4096)


def run_attack(attack_name, policy_name, **machine_kwargs):
    """Run one named attack against one named policy."""
    policy = make_policy(policy_name)
    if policy.obfuscation and "obfuscator" not in machine_kwargs:
        machine_kwargs["obfuscator"] = _make_obfuscator()

    if attack_name == "pointer-conversion":
        attack = PointerConversionAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "binary-search":
        attack = BinarySearchAttack(secret=0x5A5)
        recovered, trials, detected = attack.recover(
            policy, bits=12, **machine_kwargs)
        return AttackResult(
            attack_name, policy_name,
            leaked=recovered == attack.secret,
            detected=detected,
            details={"recovered": recovered, "trials": trials},
        )
    elif attack_name == "disclosing-kernel":
        attack = DisclosingKernelAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "disclosing-kernel-data":
        attack = DataSpaceKernelAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "disclosing-kernel-io":
        attack = IoKernelAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "page-mask":
        attack = PageMaskAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "cbc-pointer-conversion":
        from repro.attacks.cbc_malleability import \
            CbcPointerConversionAttack

        attack = CbcPointerConversionAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    elif attack_name == "control-flow":
        from repro.attacks.control_flow import ControlFlowAttack

        attack = ControlFlowAttack()
        machine, result = attack.run(policy, **machine_kwargs)
        leaked = attack.leaked_secret(machine, result)
    else:
        raise ValueError("unknown attack %r" % attack_name)
    return AttackResult(attack_name, policy_name, leaked=leaked,
                        detected=result.detected)


def empirical_security_matrix(policy_names, attacks=FETCH_CHANNEL_ATTACKS):
    """Return ``{policy: {attack: AttackResult}}``."""
    matrix = {}
    for policy_name in policy_names:
        matrix[policy_name] = {
            attack: run_attack(attack, policy_name) for attack in attacks
        }
    return matrix


def prevents_fetch_side_channel(policy_name,
                                attacks=FETCH_CHANNEL_ATTACKS):
    """Empirical Table 2, column 1: no fetch-channel exploit leaks."""
    return not any(
        run_attack(attack, policy_name).leaked for attack in attacks
    )
