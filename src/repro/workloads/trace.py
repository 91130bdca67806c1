"""Trace containers for the timing simulator.

A trace is the committed-path instruction stream: the timestamp core
replays it, so wrong-path effects are folded into the branch-mispredict
redirect penalty (standard practice for trace-driven models).
"""

import struct
from array import array
from collections import Counter
from itertools import accumulate, chain


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


#: Rows packed per :func:`struct.pack` call in :func:`int64_array`.
_PACK_ROWS = 4096


def int64_array(values):
    """A sequence of ints as an ``array('q')``.

    Packing through :mod:`struct` converts about twice as fast as
    ``array('q', values)``, which appends item by item; packing a slice
    at a time keeps the temporaries small.
    """
    out = array("q")
    for start in range(0, len(values), _PACK_ROWS):
        rows = values[start:start + _PACK_ROWS]
        out.frombytes(struct.pack("%dq" % len(rows), *rows))
    return out


def int64_columns(packed):
    """The int64 encoding of a trace's columns, as ``array('q')`` values.

    ``srcss`` becomes a CSR pair: ``src_val`` holds every row's sources
    back to back and row ``i``'s are ``src_val[src_off[i]:src_off[i+1]]``.
    ``mispredicts`` becomes 0/1.  The artifact store writes these arrays
    and the native kernel reads them.  Built fresh on every call: a
    cached copy would double each trace's footprint in the trace cache.
    """
    srcss = packed.srcss
    return {
        "pcs": int64_array(packed.pcs),
        "ops": int64_array(packed.ops),
        "dests": int64_array(packed.dests),
        "addrs": int64_array(packed.addrs),
        "mispredicts": array("q", map(bool, packed.mispredicts)),
        "src_off": array("q", accumulate(map(len, srcss), initial=0)),
        "src_val": array("q", chain.from_iterable(srcss)),
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
