"""Execution-driven trace capture.

Bridges the two models: run a *real program* on the functional secure
machine, record its committed instruction stream, annotate branches with
a bimodal predictor, and replay the result on the timing simulator.
This gives execution-driven traces (exact dataflow, exact addresses) in
addition to the synthetic SPEC-like generators.

    machine = SecureMachine(make_policy("decrypt-only"))
    load_program(machine, source)
    trace = capture_trace(machine, max_steps=50_000)
    result = run_trace(trace, SimConfig(), "authen-then-commit")
"""

from repro.cpu.branch import BimodalPredictor
from repro.isa.instructions import OpClass
from repro.workloads.trace import Op, PackedTrace, Trace

_OPCLASS_TO_OP = {
    OpClass.IALU: Op.IALU,
    OpClass.IMUL: Op.IMUL,
    OpClass.FPU: Op.FPU,
    OpClass.LOAD: Op.LOAD,
    OpClass.STORE: Op.STORE,
    OpClass.BRANCH: Op.BRANCH,
    OpClass.JUMP: Op.JUMP,
    OpClass.SYSTEM: Op.SYSTEM,
}


def capture_trace(machine, max_steps=10_000, name="captured",
                  predictor=None):
    """Execute ``machine`` and return the committed path as a Trace.

    The machine runs until HALT, a fault, or ``max_steps``.  Faults and
    integrity exceptions simply end the capture (the committed prefix is
    returned) -- capture is meant for *benign* runs feeding the timing
    model.
    """
    predictor = predictor or BimodalPredictor()
    rows = []
    footprint_low = None
    footprint_high = None

    while machine.steps < max_steps:
        try:
            alive = machine.step()
        except Exception:
            break
        if machine.last_executed is None:
            break
        pc, inst, mem_vaddr = machine.last_executed
        op = _OPCLASS_TO_OP[inst.op_class]

        dest = inst.destination()
        srcs = tuple(inst.sources())
        mispredict = False
        if inst.is_control:
            taken = machine.pc != pc + 4
            target = machine.pc if taken else None
            mispredict = predictor.predict_update(pc, taken, target)

        if mem_vaddr >= 0:
            if footprint_low is None or mem_vaddr < footprint_low:
                footprint_low = mem_vaddr
            if footprint_high is None or mem_vaddr > footprint_high:
                footprint_high = mem_vaddr

        rows.append((pc, op, dest if dest is not None else -1, srcs,
                     mem_vaddr if mem_vaddr >= 0 else -1, mispredict))
        if not alive:
            break

    footprint = 0
    if footprint_low is not None:
        footprint = footprint_high - footprint_low + 4
    return Trace(name, PackedTrace.from_rows(rows),
                 footprint_bytes=footprint, suite="captured")
