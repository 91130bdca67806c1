"""Authentication control points (the paper's core contribution).

A *policy* decides where in the out-of-order pipeline the result of
integrity verification gates execution:

===========================  =====================================
``decrypt-only``             baseline: no verification at all
``authen-then-issue``        nothing unverified may issue
``authen-then-commit``       speculative issue, verified commit
``authen-then-write``        stores drain only after verification
``authen-then-fetch``        bus fetches gated on the auth frontier
``authen-then-fetch-drain``  drain-variant of the above (Section 4.2.4)
``commit+fetch``             the paper's recommended combination
``commit+obfuscation``       verified commit + re-mapped addresses
``lazy``                     batched verification (Yan et al. [25])
===========================  =====================================

Policies are pure decision objects: the timing core and the functional
machine both consult the same instance, so the performance results and the
security results (Table 2) always describe the same mechanism.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.policies.base": ("AuthPolicy", "GatingTerms",
                            "SecurityProperties"),
    "repro.policies.registry": ("PolicyEntry", "POLICY_REGISTRY",
                                "POLICY_SETS", "POLICY_NAMES",
                                "FIGURE7_POLICIES", "available_policies",
                                "make_policy", "policy_label",
                                "policy_set"),
    "repro.policies.security": ("security_matrix", "table2_rows"),
})
