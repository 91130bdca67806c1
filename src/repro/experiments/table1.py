"""Table 1: latency gap between decryption and integrity verification."""

from repro.crypto.latency import CryptoLatencyModel, latency_gap_table
from repro.sim.report import render_table


def run(memory_fetch_latency=200, decrypt_latency=80, hmac_latency=74,
        line_bytes=64):
    """Compute both Table 1 rows; returns a list of LatencyGap."""
    model = CryptoLatencyModel(decrypt_latency=decrypt_latency,
                               hmac_latency=hmac_latency,
                               line_bytes=line_bytes)
    return latency_gap_table(model, memory_fetch_latency)


HEADERS = ["scheme", "decrypt (critical)", "decrypt (full line)",
           "authenticate", "gap"]


def emit(memory_fetch_latency=200):
    """Both artifact forms: ``(text, series)``, the series being the
    machine-readable twin of the rendered table (same numbers)."""
    from repro.obs.export import (build_figure_series, series_from_matrix,
                                  series_panel)
    title = ("Table 1 -- decryption vs authentication latency "
             "(memory fetch = %d cycles)" % memory_fetch_latency)
    table = [
        [r.scheme, r.decryption_latency, r.full_decryption_latency,
         r.authentication_latency, r.gap]
        for r in run(memory_fetch_latency)
    ]
    series = build_figure_series(
        "table1", title,
        [series_panel("table1", title, series_from_matrix(HEADERS, table),
                      x_label="scheme")])
    return title + "\n" + render_table(HEADERS, table), series


if __name__ == "__main__":
    print(emit()[0])
