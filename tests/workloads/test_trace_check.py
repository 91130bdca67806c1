"""The trace constructor's check.

The native walk and replay use trace values as array indices (cache
sets from pcs and addresses, register files from dests and sources,
CSR slices from ``src_off``) and trust them.  ``PackedTrace`` checks
those values once, when a trace is built, so no ill-formed trace ever
reaches the kernel.
"""

import os
import subprocess
import sys
from array import array

import pytest

from repro.workloads.trace import NUM_REGS, Op, PackedTrace
from tests.traces import row, trace_from_rows

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Builds a trace of loads below address 0 and, if that is accepted,
#: times it through the native walk and replay.
_NEGATIVE_LOADS = """
from repro.config import SimConfig
from repro.cpu.prepass import build_prepass
from repro.cpu.shared_kernel import replay_policy
from repro.policies import make_policy
from repro.workloads.trace import Op
from tests.traces import row, trace_from_rows

rows = [row(4 * i, Op.LOAD, 1 + i % 8, (), -(1 << 20) - 4096 * i)
        for i in range(200)]
try:
    trace = trace_from_rows(rows)
except ValueError:
    print("rejected")
else:
    config = SimConfig()
    prepass = build_prepass(trace, config)
    print(replay_policy(prepass, make_policy("decrypt-only"), config).cycles)
"""


def test_negative_load_addresses_never_reach_the_walk():
    """The walk indexes cache sets by address, so loads below 0 crash
    it; the constructor refuses them.  Runs in a subprocess, so a
    crash fails this test instead of the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE_LOADS],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_registers_outside_the_file_rejected():
    """A dest or source past the register file would make the replay
    write past its register arrays (and the legacy core raise
    IndexError)."""
    with pytest.raises(ValueError, match="dests"):
        trace_from_rows([row(0, Op.IMUL, 70, (1,)),
                         row(4, Op.IALU, 2, (1,))])
    with pytest.raises(ValueError, match="src_val"):
        trace_from_rows([row(0, Op.IMUL, 1, (1,)),
                         row(4, Op.IALU, 2, (65,))])


@pytest.mark.parametrize("bad", [
    row(-4, Op.IALU, 1),
    row(0, -1, 1),
    row(0, 8, 1),
    row(0, Op.IALU, -2),
    row(0, Op.IALU, NUM_REGS),
    row(0, Op.IALU, 1, (-1,)),
    row(0, Op.IALU, 1, (NUM_REGS,)),
    row(0, Op.LOAD, 1, (), -1),
    row(0, Op.STORE, -1, (1,), -8),
], ids=["pc", "op-low", "op-high", "dest-low", "dest-high", "src-low",
        "src-high", "load-addr", "store-addr"])
def test_out_of_range_value_rejected(bad):
    with pytest.raises(ValueError):
        trace_from_rows([row(0, Op.IALU, 1), bad])


def test_edge_values_accepted():
    trace = trace_from_rows([
        row(0, Op.IALU, NUM_REGS - 1, (0, NUM_REGS - 1)),
        row(4, Op.LOAD, -1, (), 0),
        row(8, Op.SYSTEM, -1, (), -1),
        row(12, Op.BRANCH, -1, (1,), -5, True),
    ])
    assert len(trace) == 4


def _columns(**changes):
    """Well-formed two-row columns, with ``changes`` applied."""
    columns = dict(pcs=[0, 4], ops=[Op.IALU, Op.IALU], dests=[1, 2],
                   src_off=[0, 1, 2], src_val=[3, 1], addrs=[-1, -1],
                   mispredicts=[0, 0])
    columns.update(changes)
    return {name: array("q", values) for name, values in columns.items()}


@pytest.mark.parametrize("changes", [
    {"ops": [Op.IALU]},
    {"mispredicts": [0, 0, 0]},
    {"src_off": [0, 1]},
    {"src_off": [1, 1, 2]},
    {"src_off": [0, 2, 1]},
    {"src_off": [0, 1, 1]},
], ids=["short-ops", "long-mispredicts", "short-src_off", "off-start",
        "off-order", "off-end"])
def test_malformed_columns_rejected(changes):
    PackedTrace(**_columns())
    with pytest.raises(ValueError):
        PackedTrace(**_columns(**changes))


def test_columns_must_be_int64_arrays():
    columns = _columns()
    columns["dests"] = [1, 2]
    with pytest.raises(TypeError):
        PackedTrace(**columns)
