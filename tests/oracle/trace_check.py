"""The trace check's reference model.

:func:`check_python` is ``PackedTrace._check`` with every value check
made by Python builtins, the oracle of the one C pass
(:func:`repro.cpu.native.trace_bounds`) that the check makes now;
``tests/workloads/test_trace_check_oracle.py`` holds the two in
lockstep.
"""

from array import array
from itertools import compress

from repro.workloads.trace import NUM_REGS, Op

_MEMORY_OPS = frozenset((Op.LOAD, Op.STORE))


def check_python(packed):
    """TypeError unless every column is an ``array('q')``; ValueError
    unless the row columns have equal lengths, ``src_off`` runs
    monotonically from 0 to ``len(src_val)``, ops are :class:`Op`
    codes, registers are in range and pcs and load/store addresses
    are at least 0."""
    for name in packed.COLUMNS:
        column = getattr(packed, name)
        if not isinstance(column, array) or column.typecode != "q":
            raise TypeError("column %s is not an array('q')" % name)
    rows = len(packed.pcs)
    if any(len(getattr(packed, name)) != rows
           for name in ("ops", "dests", "addrs", "mispredicts")):
        raise ValueError("the row columns differ in length")
    offsets = packed.src_off.tolist()
    if (len(offsets) != rows + 1 or offsets[0] != 0
            or offsets[-1] != len(packed.src_val)
            or sorted(offsets) != offsets):
        raise ValueError("src_off is not a monotone run of %d offsets "
                         "from 0 to len(src_val) = %d"
                         % (rows + 1, len(packed.src_val)))
    if packed.pcs and min(packed.pcs) < 0:
        raise ValueError("pcs holds %d, below 0" % min(packed.pcs))
    for name, low, high in (("ops", 0, len(Op.NAMES)),
                            ("dests", -1, NUM_REGS),
                            ("src_val", 0, NUM_REGS)):
        column = getattr(packed, name)
        if column and (min(column) < low or max(column) >= high):
            raise ValueError("%s holds %d..%d, outside [%d, %d)"
                             % (name, min(column), max(column), low,
                                high))
    if min(compress(packed.addrs, map(_MEMORY_OPS.__contains__,
                                      packed.ops)), default=0) < 0:
        raise ValueError("a load or store has a negative address")
