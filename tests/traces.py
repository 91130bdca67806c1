"""Hand-written traces for tests: rows in, one columnar ``Trace`` out."""

from repro.workloads.trace import PackedTrace, Trace


def row(pc, op, dest=-1, srcs=(), addr=-1, mispredict=False):
    """One ``(pc, op, dest, srcs, addr, mispredict)`` trace row."""
    return (pc, op, dest, srcs, addr, mispredict)


def trace_from_rows(rows, name="t"):
    """A :class:`Trace` whose columns hold ``rows`` in order."""
    return Trace(name, PackedTrace.from_rows(rows))
