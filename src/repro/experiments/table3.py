"""Table 3: processor model parameters."""

from repro.config import SimConfig, table3_parameters
from repro.sim.report import render_table


def run(config=None):
    return table3_parameters(config or SimConfig())


TITLE = "Table 3 -- processor model parameters"


def emit(config=None):
    """Both artifact forms: ``(text, series)``, the series holding the
    rendered table's string cells."""
    from repro.obs.export import (build_figure_series, series_from_matrix,
                                  series_panel)
    headers = ["parameter", "value"]
    table = [list(r) for r in run(config)]
    series = build_figure_series(
        "table3", TITLE,
        [series_panel("table3", TITLE, series_from_matrix(headers, table),
                      x_label="parameter")])
    return TITLE + "\n" + render_table(headers, table), series


if __name__ == "__main__":
    print(emit()[0])
