"""Lockstep oracle: the trace check's C pass against the Python one.

:func:`tests.oracle.trace_check.check_python` is the reference model;
``PackedTrace._check`` makes its value checks in one C pass
(:func:`repro.cpu.native.trace_bounds`).  Given the same columns, the
two must both accept them, or both raise the same exception type with
the same message.  Hypothesis draws well-formed columns (empty traces
and traces without loads or stores included) and then applies up to
three faults, each one a kind of value or shape the check refuses
(or, for a negative address on a non-memory op, accepts), so the
order in which the checks report is compared too.

Tier-1 runs a derandomised profile; CI adds
``--hypothesis-profile=oracle-long`` (registered in
``tests/conftest.py``).  A failure is a check bug: pin the
counterexample below as an ``@example``.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import NUM_REGS, Op, PackedTrace
from tests.oracle.trace_check import check_python

INT64 = st.integers(-2**63, 2**63 - 1)
_ROW_COLUMNS = ("pcs", "ops", "dests", "addrs", "mispredicts")


@st.composite
def valid_columns(draw):
    """Well-formed columns as Python lists: ``rows`` rows of drawn ops,
    with or without loads and stores, and 0 to 3 sources a row."""
    rows = draw(st.one_of(st.sampled_from((0, 1)), st.integers(0, 40)))
    memory = draw(st.booleans())
    op_codes = sorted(Op.NAMES) if memory else [
        op for op in Op.NAMES if op not in (Op.LOAD, Op.STORE)]
    ops = [draw(st.sampled_from(op_codes)) for _ in range(rows)]
    counts = [draw(st.integers(0, 3)) for _ in range(rows)]
    src_off = [0]
    for count in counts:
        src_off.append(src_off[-1] + count)
    return {
        "pcs": [draw(st.integers(0, 2**63 - 1)) for _ in range(rows)],
        "ops": ops,
        "dests": [draw(st.integers(-1, NUM_REGS - 1)) for _ in range(rows)],
        "addrs": [draw(st.integers(0, 2**63 - 1)) if op in (Op.LOAD,
                                                           Op.STORE)
                  else draw(INT64) for op in ops],
        "mispredicts": [draw(st.integers(0, 1)) for _ in range(rows)],
        "src_off": src_off,
        "src_val": [draw(st.integers(0, NUM_REGS - 1))
                    for _ in range(src_off[-1])],
    }


def _position(draw, size):
    """An index below ``size``, the first and the last ones often."""
    return draw(st.one_of(st.sampled_from((0, size - 1)),
                          st.integers(0, size - 1)))


def _set_somewhere(draw, column, value):
    if column:
        column[_position(draw, len(column))] = value


def apply_fault(draw, columns, fault):
    """Apply one ``fault`` (a name from :data:`FAULTS`) to ``columns``."""
    if fault == "pc":
        _set_somewhere(draw, columns["pcs"], draw(st.integers(-2**63, -1)))
    elif fault == "op":
        _set_somewhere(draw, columns["ops"], draw(st.one_of(
            st.integers(-2**63, -1), st.integers(len(Op.NAMES), 2**63 - 1),
            st.sampled_from((-1, len(Op.NAMES))))))
    elif fault in ("dests", "src_val"):
        low = -1 if fault == "dests" else 0
        _set_somewhere(draw, columns[fault], draw(st.one_of(
            st.integers(-2**63, low - 1), st.integers(NUM_REGS, 2**63 - 1),
            st.sampled_from((low - 1, NUM_REGS)))))
    elif fault in ("memory_addr", "other_addr"):
        memory = fault == "memory_addr"
        rows = [i for i, op in enumerate(columns["ops"])
                if (op in (Op.LOAD, Op.STORE)) == memory]
        if rows:
            columns["addrs"][draw(st.sampled_from(rows))] = draw(
                st.integers(-2**63, -1))
    elif fault == "off_order":
        offsets = columns["src_off"]
        if len(offsets) > 2:
            offsets[1 + _position(draw, len(offsets) - 2)] = draw(st.one_of(
                st.integers(offsets[-1] + 1, 2**63 - 1),
                st.integers(-2**63, -1)))
    elif fault == "off_ends":
        offsets = columns["src_off"]
        offsets[draw(st.sampled_from((0, -1)))] += draw(
            st.sampled_from((-1, 1)))
    elif fault == "off_length":
        offsets = columns["src_off"]
        if draw(st.booleans()) and len(offsets) > 1:
            offsets.pop(_position(draw, len(offsets)))
        else:
            offsets.append(offsets[-1])
    elif fault == "row_length":
        column = columns[draw(st.sampled_from(_ROW_COLUMNS))]
        if column and draw(st.booleans()):
            column.pop()
        else:
            column.append(0)
    elif fault == "type":
        columns[draw(st.sampled_from(PackedTrace.COLUMNS))] = draw(
            st.sampled_from(("list", "int32")))


#: In the order they are applied: value faults, then shape faults.
FAULTS = ("pc", "op", "dests", "src_val", "memory_addr", "other_addr",
          "off_order", "off_ends", "off_length", "row_length", "type")


@st.composite
def columns_and_faults(draw):
    columns = draw(valid_columns())
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    # Values first, then shapes: a shortened column or a retyped one
    # (a mark, not a list) must not stop a later value fault.
    for fault in sorted(faults, key=FAULTS.index):
        apply_fault(draw, columns, fault)
    return columns, faults


def _unchecked(columns):
    """A PackedTrace over ``columns`` that its constructor never checked
    (a ``"list"`` or ``"int32"`` mark makes that column the wrong type)."""
    packed = PackedTrace.__new__(PackedTrace)
    for name, values in columns.items():
        if values == "list":
            values = [0]
        elif values == "int32":
            values = array("i")
        else:
            values = array("q", values)
        setattr(packed, name, values)
    return packed


def _outcome(check, packed):
    try:
        check(packed)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None, derandomize=True)
@given(drawn=columns_and_faults())
def test_c_check_equals_python_check(drawn):
    columns, faults = drawn
    packed = _unchecked(columns)
    expected = _outcome(check_python, packed)
    assert _outcome(PackedTrace._check, packed) == expected
    if not faults:
        assert expected is None


def test_every_edge_value_at_every_row():
    """Each column's first bad values and both int64 extremes at each
    row of a small trace: a C pass that skips a row or an end is caught
    here even when the drawn examples miss it."""
    base = {"pcs": [0, 4, 8, 12], "ops": [Op.LOAD, Op.STORE, Op.IALU,
                                            Op.LOAD],
            "dests": [1, -1, 2, 3], "addrs": [64, 128, -1, 192],
            "mispredicts": [0, 0, 0, 0], "src_off": [0, 1, 3, 5, 6],
            "src_val": [60, 1, 2, 3, 4, 5]}
    extremes = (-2**63, 2**63 - 1)
    values = {"pcs": (-1,) + extremes, "ops": (-1, len(Op.NAMES)) + extremes,
              "dests": (-2, NUM_REGS) + extremes,
              "src_val": (-1, NUM_REGS) + extremes,
              "addrs": (-1,) + extremes, "src_off": (-1, 7) + extremes}
    for name, edges in values.items():
        for index in range(len(base[name])):
            for value in edges:
                columns = {key: list(column) for key, column in base.items()}
                columns[name][index] = value
                packed = _unchecked(columns)
                expected = _outcome(check_python, packed)
                assert _outcome(PackedTrace._check, packed) == expected, (
                    name, index, value)
    assert _outcome(PackedTrace._check, _unchecked(base)) is None


def test_constructor_runs_the_c_check():
    """The constructor reports what the C pass finds, with the
    oracle's message."""
    columns = {"pcs": [0, 4], "ops": [Op.LOAD, Op.IALU], "dests": [1, 2],
               "addrs": [-8, -1], "mispredicts": [0, 0],
               "src_off": [0, 1, 1], "src_val": [3]}
    expected = _outcome(check_python, _unchecked(columns))
    assert expected == (ValueError,
                        "a load or store has a negative address")
    with pytest.raises(ValueError) as info:
        PackedTrace(**{name: array("q", values)
                       for name, values in columns.items()})
    assert (ValueError, str(info.value)) == expected
