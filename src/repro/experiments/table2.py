"""Table 2: security characteristics of the schemes.

Two views: the *analytical* matrix (the policies' declared properties,
matching the paper's table) and the *empirical* first column, obtained by
actually running the Section 3 exploits against each policy on the
functional secure machine.  With an artifact store the empirical
outcomes are read from its attack tier, so a warm regeneration runs no
attack and loads no attack code.
"""

from repro.exec.store import active_store
from repro.policies.security import (
    FETCH_CHANNEL_ATTACKS,
    TABLE2_POLICIES,
    table2_rows,
)
from repro.sim.report import render_table


def run_static(policies=TABLE2_POLICIES):
    """The analytical matrix (paper's Table 2)."""
    return table2_rows(policies)


def run_empirical(policies=TABLE2_POLICIES, attacks=FETCH_CHANNEL_ATTACKS):
    """Attack-by-attack outcomes per policy."""
    from repro.attacks.harness import empirical_security_matrix

    return empirical_security_matrix(policies, attacks)


def _leaked(policies):
    """``{policy: {attack: leaked}}`` from the active store, or from
    running the attacks (and storing their outcome) on a miss."""
    attacks = FETCH_CHANNEL_ATTACKS
    store = active_store()
    leaked = None if store is None else store.load_attacks(policies, attacks)
    if leaked is None:
        matrix = run_empirical(policies, attacks)
        leaked = {policy: {attack: matrix[policy][attack].leaked
                           for attack in attacks}
                  for policy in policies}
        if store is not None:
            store.save_attacks(policies, attacks, leaked)
    return leaked


TITLE = "Table 2 -- characteristics of the authentication schemes"
EMPIRICAL_TITLE = ("Empirical fetch-side-channel outcomes "
                   "(functional machine, real ciphertext tampering)")


def _empirical_table(policies, matrix):
    headers = ["scheme"] + [a for a in FETCH_CHANNEL_ATTACKS]
    table = []
    for policy in policies:
        table.append(
            [policy]
            + ["LEAK" if matrix[policy][a] else "blocked"
               for a in FETCH_CHANNEL_ATTACKS]
        )
    return headers, table


def emit(policies=TABLE2_POLICIES, empirical=True):
    """Both artifact forms: ``(text, series)``, the series holding the
    rendered tables' string cells."""
    from repro.obs.export import (build_figure_series, series_from_matrix,
                                  series_panel)
    rows = run_static(policies)
    out = [TITLE, render_table(rows[0], rows[1:])]
    panels = [series_panel("static", TITLE,
                           series_from_matrix(rows[0], rows[1:]),
                           x_label=rows[0][0])]
    if empirical:
        headers, table = _empirical_table(policies, _leaked(policies))
        out += ["", EMPIRICAL_TITLE + ":", render_table(headers, table)]
        panels.append(series_panel("empirical", EMPIRICAL_TITLE,
                                   series_from_matrix(headers, table),
                                   x_label="scheme"))
    return "\n".join(out), build_figure_series("table2", TITLE, panels)


if __name__ == "__main__":
    print(emit()[0])
