"""Memory-fetch side-channel exploits (Section 3), end to end.

Every attack here runs a real victim program on the functional secure
machine, mutates real ciphertext in its external memory (bit flips and
XOR splices -- counter-mode malleability), and then inspects exactly what
a physical adversary sees: bus addresses, I/O output, fault logs.

The harness scores each (attack, policy) pair as *leaked* or *blocked*
and reproduces Table 2 empirically.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.attacks.tamper": ("flip_word", "splice_words"),
    "repro.attacks.cbc_malleability": ("CbcPointerConversionAttack",),
    "repro.attacks.control_flow": ("ControlFlowAttack",),
    "repro.attacks.pointer_conversion": ("PointerConversionAttack",),
    "repro.attacks.binary_search": ("BinarySearchAttack",),
    "repro.attacks.disclosing_kernel": ("DisclosingKernelAttack",
                                        "DataSpaceKernelAttack",
                                        "IoKernelAttack"),
    "repro.attacks.page_mask": ("PageMaskAttack",),
    "repro.attacks.brute_force": ("BruteForcePageAttack",),
    "repro.attacks.replay": ("ReplayAttack",),
    "repro.attacks.harness": ("AttackResult", "run_attack",
                              "empirical_security_matrix"),
})
