"""Trace containers for the timing simulator.

A trace is the committed-path instruction stream: the timestamp core
replays it, so wrong-path effects are folded into the branch-mispredict
redirect penalty (standard practice for trace-driven models).
"""

from array import array
from collections import Counter


class Op:
    """Execution classes (small ints for speed in the hot loop)."""

    IALU = 0
    IMUL = 1
    FPU = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5
    JUMP = 6
    SYSTEM = 7

    NAMES = {
        IALU: "ialu",
        IMUL: "imul",
        FPU: "fpu",
        LOAD: "load",
        STORE: "store",
        BRANCH: "branch",
        JUMP: "jump",
        SYSTEM: "system",
    }


class PackedTrace:
    """Columnar (structure-of-arrays) form of an instruction stream.

    Six parallel columns -- ``pcs``, ``ops``, ``dests``, ``srcss``,
    ``addrs``, ``mispredicts`` -- with row ``i`` holding the fields of
    committed instruction ``i``: ``srcs`` are architectural source
    register ids, ``dest`` is -1 when the instruction writes no register,
    ``addr`` is the effective byte address of a load or store (-1
    otherwise) and ``mispredict`` marks branches the front end predicted
    wrongly.  The generators append straight to these columns and every
    consumer reads them; there is no per-instruction object.

    A column is a list for a generated or captured trace and a
    zero-copy view of the mapped file for one the artifact store
    loaded.  Columns are never mutated once built.
    """

    __slots__ = ("pcs", "ops", "dests", "srcss", "addrs", "mispredicts")

    def __init__(self, pcs, ops, dests, srcss, addrs, mispredicts):
        self.pcs = pcs
        self.ops = ops
        self.dests = dests
        self.srcss = srcss
        self.addrs = addrs
        self.mispredicts = mispredicts

    def __len__(self):
        return len(self.pcs)

    def rows(self):
        """Iterate ``(pc, op, dest, srcs, addr, mispredict)`` rows."""
        return zip(self.pcs, self.ops, self.dests, self.srcss,
                   self.addrs, self.mispredicts)

    def columns(self):
        """The six parallel columns, in row order."""
        return (self.pcs, self.ops, self.dests, self.srcss, self.addrs,
                self.mispredicts)


def int64_columns(packed):
    """The int64 encoding of a trace's columns, as ``array('q')`` values.

    ``srcss`` becomes a CSR pair: ``src_val`` holds every row's sources
    back to back and row ``i``'s are ``src_val[src_off[i]:src_off[i+1]]``.
    ``mispredicts`` becomes 0/1.  The artifact store writes these arrays
    and the native kernel reads them.  Built fresh on every call: a
    cached copy would double each trace's footprint in the trace cache.
    """
    src_off = array("q", bytes(8 * (len(packed) + 1)))
    src_val = array("q")
    for index, srcs in enumerate(packed.srcss, 1):
        src_val.extend(srcs)
        src_off[index] = len(src_val)
    return {
        "pcs": array("q", packed.pcs),
        "ops": array("q", packed.ops),
        "dests": array("q", packed.dests),
        "addrs": array("q", packed.addrs),
        "mispredicts": array("q", map(bool, packed.mispredicts)),
        "src_off": src_off,
        "src_val": src_val,
    }


class Trace:
    """A named instruction trace: one :class:`PackedTrace` plus metadata."""

    __slots__ = ("name", "footprint_bytes", "suite", "_packed")

    def __init__(self, name, packed, footprint_bytes=0, suite=""):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.suite = suite
        self._packed = packed

    def __len__(self):
        return len(self._packed)

    def packed(self):
        """The trace's :class:`PackedTrace` columns."""
        return self._packed

    def op_mix(self):
        """Fraction of instructions per op class (diagnostics)."""
        total = len(self) or 1
        return {Op.NAMES[op]: count / total
                for op, count in Counter(self._packed.ops).items()}
