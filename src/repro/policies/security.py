"""Security characteristics of the schemes (the paper's Table 2).

The static matrix mirrors the paper's analysis; the *empirical* version of
the same table is produced by running the attack suite against each policy
(:mod:`repro.attacks.harness`), and a test asserts the two agree.  The
attack names live here, with no attack code, so naming them (``repro
list``, Table 2's store key) loads no functional machine.
"""

from repro.policies.registry import make_policy, policy_set

TABLE2_POLICIES = policy_set("table2")

#: The exploits that decide Table 2's first column.
FETCH_CHANNEL_ATTACKS = (
    "pointer-conversion",
    "binary-search",
    "disclosing-kernel",
    "disclosing-kernel-data",
    "page-mask",
)

ALL_ATTACKS = FETCH_CHANNEL_ATTACKS + (
    "disclosing-kernel-io",
    "cbc-pointer-conversion",
    "control-flow",
)

COLUMNS = (
    ("prevents active fetch side-channel", "prevents_fetch_side_channel"),
    ("precise exception", "precise_exception"),
    ("authenticated memory state", "authenticated_memory_state"),
    ("authenticated processor state", "authenticated_processor_state"),
)


def security_matrix(policy_names=TABLE2_POLICIES):
    """Return ``{policy: {column: bool}}`` for the requested policies."""
    matrix = {}
    for name in policy_names:
        policy = make_policy(name)
        matrix[name] = {
            label: getattr(policy.security, attr) for label, attr in COLUMNS
        }
    return matrix


def table2_rows(policy_names=TABLE2_POLICIES):
    """Render Table 2 as text rows (checkmark per satisfied property)."""
    matrix = security_matrix(policy_names)
    header = ["scheme"] + [label for label, _ in COLUMNS]
    rows = [header]
    for name in policy_names:
        rows.append(
            [name] + ["yes" if matrix[name][label] else "-" for label, _ in COLUMNS]
        )
    return rows
