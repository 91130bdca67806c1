"""Plain-text rendering of experiment tables."""


#: Placeholder rendered for a cell whose run is missing (a job that
#: failed terminally under a skipping failure policy).
MISSING_CELL = "--"


def render_table(headers, rows, float_format="%.3f"):
    """Render a list-of-lists table with aligned columns.

    Numeric cells (ints and floats, as conventional for figures) are
    right-aligned; text cells are left-aligned.  ``None`` cells render
    as ``--`` (right-aligned: they stand in for numbers).
    """
    def fmt(value):
        if value is None:
            return MISSING_CELL
        if isinstance(value, float):
            return float_format % value
        return str(value)

    def numeric(value):
        if value is None:
            return True  # placeholder for a number: align like one
        return isinstance(value, (int, float)) and \
            not isinstance(value, bool)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    numeric_rows = [[numeric(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for cells, numerics in zip(text_rows, numeric_rows):
        lines.append("  ".join(
            cell.rjust(widths[i]) if numerics[i] else cell.ljust(widths[i])
            for i, cell in enumerate(cells)))
    return "\n".join(lines)


def series_rows(table_rows, policies):
    """Convert sweep table rows into render_table rows."""
    out = []
    for benchmark, values in table_rows:
        out.append([benchmark] + [values[p] for p in policies])
    return out


def render_panels(figure, title, panels):
    """Both artifact forms, ``(text, series)``, of a figure made of
    sweep tables.

    ``panels`` lists ``(name, title, table_rows, policies)``: each panel
    renders as its title over its table, blank-line separated, and is
    one panel of the figure-series twin (same numbers).
    """
    from repro.obs.export import (build_figure_series, series_from_rows,
                                  series_panel)
    blocks = []
    series = []
    for name, panel_title, rows, policies in panels:
        policies = list(policies)
        blocks.append(panel_title + "\n" + render_table(
            ["benchmark"] + policies, series_rows(rows, policies)))
        series.append(series_panel(name, panel_title,
                                   series_from_rows(rows, policies)))
    return "\n\n".join(blocks), build_figure_series(figure, title, series)


def failure_footer(sweep):
    """Table footer summarising a sweep's terminal failures, or "".

    One line per failed (benchmark, policy) pair plus a count, appended
    under rendered tables so a ``--`` cell is never silent.
    """
    failed = sweep.failed_jobs()
    if not failed:
        return ""
    lines = ["%d job(s) failed terminally and are shown as %s:"
             % (len(failed), MISSING_CELL)]
    for (benchmark, policy), outcome in sorted(failed.items()):
        lines.append("  %s/%s: %s after %d attempt(s)"
                     % (benchmark, policy, outcome.error,
                        outcome.attempts))
    return "\n".join(lines)
