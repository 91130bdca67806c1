"""Trace containers for the timing simulator.

A trace is the committed-path instruction stream: the timestamp core
replays it, so wrong-path effects are folded into the branch-mispredict
redirect penalty (standard practice for trace-driven models).
"""

import struct
from array import array
from collections import Counter
from itertools import accumulate, chain, compress, islice


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


#: Architectural registers, as the generator, the timestamp core and
#: the native replay size their register files.
NUM_REGS = 64

#: Rows packed per :func:`struct.pack` call in :func:`_int64_array`.
_PACK_ROWS = 4096

_MEMORY_OPS = frozenset((Op.LOAD, Op.STORE))


def _int64_array(values):
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


class PackedTrace:
    """The int64 columns of an instruction stream.

    Seven ``array('q')`` columns, the one encoding every consumer reads
    (the timing core, the native walk and replay, the artifact store).
    Row ``i`` is committed instruction ``i``: ``pcs[i]``, ``ops[i]``
    (an :class:`Op` code), ``dests[i]`` (-1 for no register written),
    ``addrs[i]`` (a load's or store's byte address, else -1),
    ``mispredicts[i]`` (1 for a mispredicted branch, else 0) and the
    sources ``src_val[src_off[i]:src_off[i + 1]]`` (a CSR pair).

    The constructor checks every value the native kernel uses as an
    index, once, so columns are never mutated after it.  :meth:`pack`
    builds a trace from Python columns, :meth:`from_rows` from rows.
    """

    #: In constructor order, which is also the artifact store's file order.
    COLUMNS = ("pcs", "ops", "dests", "addrs", "mispredicts", "src_off",
               "src_val")

    __slots__ = COLUMNS

    def __init__(self, pcs, ops, dests, addrs, mispredicts, src_off,
                 src_val):
        self.pcs = pcs
        self.ops = ops
        self.dests = dests
        self.addrs = addrs
        self.mispredicts = mispredicts
        self.src_off = src_off
        self.src_val = src_val
        self._check()

    @classmethod
    def pack(cls, pcs, ops, dests, srcss, addrs, mispredicts):
        """Pack six Python row columns, ``srcss`` a sequence of source
        tuples, into int64 columns (``mispredicts`` by truth value)."""
        return cls(_int64_array(pcs), _int64_array(ops), _int64_array(dests),
                   _int64_array(addrs),
                   _int64_array([*map(bool, mispredicts)]),
                   _int64_array([*accumulate(map(len, srcss), initial=0)]),
                   _int64_array([*chain.from_iterable(srcss)]))

    @classmethod
    def from_rows(cls, rows):
        """Pack ``(pc, op, dest, srcs, addr, mispredict)`` rows."""
        return cls.pack(*(list(zip(*rows)) or [()] * 6))

    def _check(self):
        """TypeError unless every column is an ``array('q')``; ValueError
        unless the row columns have equal lengths, ``src_off`` runs
        monotonically from 0 to ``len(src_val)``, ops are :class:`Op`
        codes, registers are in range and pcs and load/store addresses
        are at least 0."""
        for name in self.COLUMNS:
            column = getattr(self, name)
            if not isinstance(column, array) or column.typecode != "q":
                raise TypeError("column %s is not an array('q')" % name)
        rows = len(self.pcs)
        if any(len(getattr(self, name)) != rows
               for name in ("ops", "dests", "addrs", "mispredicts")):
            raise ValueError("the row columns differ in length")
        offsets = self.src_off.tolist()
        if (len(offsets) != rows + 1 or offsets[0] != 0
                or offsets[-1] != len(self.src_val)
                or sorted(offsets) != offsets):
            raise ValueError("src_off is not a monotone run of %d offsets "
                             "from 0 to len(src_val) = %d"
                             % (rows + 1, len(self.src_val)))
        if self.pcs and min(self.pcs) < 0:
            raise ValueError("pcs holds %d, below 0" % min(self.pcs))
        for name, low, high in (("ops", 0, len(Op.NAMES)),
                                ("dests", -1, NUM_REGS),
                                ("src_val", 0, NUM_REGS)):
            column = getattr(self, name)
            if column and (min(column) < low or max(column) >= high):
                raise ValueError("%s holds %d..%d, outside [%d, %d)"
                                 % (name, min(column), max(column), low,
                                    high))
        if min(compress(self.addrs, map(_MEMORY_OPS.__contains__, self.ops)),
               default=0) < 0:
            raise ValueError("a load or store has a negative address")

    def __len__(self):
        return len(self.pcs)

    def rows(self):
        """Iterate ``(pc, op, dest, srcs, addr, mispredict)`` rows, with
        ``srcs`` a tuple and ``mispredict`` a bool: the legacy
        simulator's view of the trace."""
        offsets = self.src_off
        values = self.src_val.tolist()
        srcss = (tuple(values[start:end]) for start, end
                 in zip(offsets, islice(offsets, 1, None)))
        return zip(self.pcs, self.ops, self.dests, srcss, self.addrs,
                   map(bool, self.mispredicts))

    def columns(self):
        """The seven columns by name, in :attr:`COLUMNS` order."""
        return {name: getattr(self, name) for name in self.COLUMNS}


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
