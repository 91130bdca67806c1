"""Figure 6: timeline of authen-then-fetch vs authen-then-issue.

Two external memory fetches where the second depends on the first, with a
fixed latency ``compute_latency`` between the first fetch's data being
usable and the second fetch's address being ready.

- Under *authen-then-issue*, the dependent computation cannot start until
  the first line is **verified**, so the second fetch issues at
  ``verify1 + compute_latency``.
- Under *authen-then-fetch*, the computation runs on decrypted data
  immediately; only the **bus grant** of the second fetch waits for the
  first line's verification: ``max(data1 + compute_latency, verify1)``.

The advantage of authen-then-fetch is ``min(compute_latency, gap)``.
"""

from dataclasses import dataclass

from repro.config import SimConfig
from repro.mem.controller import MemoryController
from repro.secure.engine import SecureMemoryEngine
from repro.secure.metadata import MetadataLayout


@dataclass
class Timeline:
    scheme: str
    fetch1_issue: int
    data1: int
    verify1: int
    fetch2_issue: int
    data2: int
    verify2: int

    @property
    def finish(self):
        return self.data2


def _fresh_engine(config):
    controller = MemoryController(config.dram,
                                  line_bytes=config.l2.line_bytes)
    layout = MetadataLayout(protected_bytes=1 << 24,
                            line_bytes=config.l2.line_bytes)
    return SecureMemoryEngine(config.secure, layout, controller)


def run(compute_latency=30, config=None):
    """Returns ``{scheme: Timeline}`` for the two schemes."""
    config = config or SimConfig()
    timelines = {}

    # authen-then-issue: the dependent address computation starts only
    # after verification of fetch 1.
    engine = _fresh_engine(config)
    f1 = engine.fetch_line(0x0, 0)
    addr_ready = f1.verify_time + compute_latency
    f2 = engine.fetch_line(0x8000, addr_ready)
    timelines["authen-then-issue"] = Timeline(
        "authen-then-issue", 0, f1.data_time, f1.verify_time,
        addr_ready, f2.data_time, f2.verify_time)

    # authen-then-fetch: computation on decrypted data; bus grant gated.
    engine = _fresh_engine(config)
    f1 = engine.fetch_line(0x0, 0)
    addr_ready = f1.data_time + compute_latency
    f2 = engine.fetch_line(0x8000, addr_ready,
                           gate_time=f1.verify_time)
    timelines["authen-then-fetch"] = Timeline(
        "authen-then-fetch", 0, f1.data_time, f1.verify_time,
        addr_ready, f2.data_time, f2.verify_time)
    return timelines


#: Timeline milestones, in event order (the x axis of the series).
MILESTONES = ("fetch1_issue", "data1", "verify1", "fetch2_issue",
              "data2", "verify2")


def emit(compute_latency=30, config=None):
    """Both artifact forms of the Figure 6 timeline: ``(text, series)``.

    The series has one series per scheme, one point per milestone
    (cycle numbers), plus the headline cycle advantage in ``extra``.
    """
    from repro.obs.export import build_figure_series, series_panel
    timelines = run(compute_latency, config)
    title = ("Figure 6 -- two dependent external fetches "
             "(compute latency between them: %d cycles)" % compute_latency)
    advantage = (timelines["authen-then-issue"].finish
                 - timelines["authen-then-fetch"].finish)
    lines = [title]
    series = []
    for scheme in ("authen-then-issue", "authen-then-fetch"):
        t = timelines[scheme]
        lines.append(
            "%-18s fetch1@%-4d data1@%-4d verify1@%-4d | "
            "fetch2-ready@%-4d data2@%-4d"
            % (t.scheme, t.fetch1_issue, t.data1, t.verify1,
               t.fetch2_issue, t.data2)
        )
        series.append({"name": scheme,
                       "points": [{"x": milestone,
                                   "y": getattr(t, milestone)}
                                  for milestone in MILESTONES]})
    lines.append("authen-then-fetch finishes %d cycles earlier" % advantage)
    return "\n".join(lines), build_figure_series(
        "fig6", title,
        [series_panel("fig6", title, series, x_label="milestone")],
        extra={"advantage_cycles": advantage,
               "compute_latency": compute_latency})


if __name__ == "__main__":
    print(emit()[0])
