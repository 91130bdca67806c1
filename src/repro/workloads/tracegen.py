"""Synthetic trace generator.

Turns a :class:`~repro.workloads.spec.BenchmarkProfile` into a committed-
path instruction trace with the profile's statistical structure:

- a small *hot* data region (cache-resident) plus a large *cold* region;
- cold accesses either stream (sequential line-granular walks, one miss
  per line, prefetch-friendly DRAM row hits) or scatter randomly;
- a configurable fraction of loads are *pointer-chasing*: their address
  register is the destination of an earlier load, creating the dependent
  miss chains that authen-then-fetch serialises;
- branch mispredict flags drawn at the profile's rate;
- register dataflow with profile-controlled dependency depth (ILP).

Generation is deterministic given (profile, seed).
"""

from repro.util.rng import DeterministicRng
from repro.workloads.trace import Op, PackedTrace, Trace

DATA_BASE = 1 << 20           # data region starts at 1 MB
HOT_BYTES = 8 * 1024          # hot set: comfortably L1-resident
_NUM_REGS = 64


def generate_trace(profile, num_instructions, seed=2006, name=None):
    """Generate ``num_instructions`` committed instructions for ``profile``.

    The rows are appended straight to the six :class:`PackedTrace`
    columns.
    """
    if num_instructions < 0:
        raise ValueError("num_instructions must be non-negative")
    rng = DeterministicRng(seed).stream("workload.%s" % profile.name)
    rand = rng.random
    randrange = rng.randrange

    p_load = profile.load_fraction
    p_store = p_load + profile.store_fraction
    p_branch = p_store + profile.branch_fraction
    p_fp = p_branch + profile.fp_fraction
    p_mul = p_fp + profile.mul_fraction
    hot_fraction = profile.hot_fraction
    stream_fraction = profile.stream_fraction
    chase_fraction = profile.chase_fraction
    mispredict_rate = profile.mispredict_rate
    dependency_depth = profile.dependency_depth

    code_bytes = profile.code_bytes
    cold_bytes = max(profile.footprint_bytes, 64)
    cold_base = DATA_BASE
    hot_base = cold_base + cold_bytes

    pc = 0
    stream_ptr = randrange(cold_bytes) & ~63
    recent_dests = [1]                  # ring of recent dest registers
    recent_load_dests = [1]             # never empty
    next_reg = 1

    pcs = []
    ops = []
    dests = []
    srcss = []
    addrs = []
    mispredicts = []

    # Registers 56..63 are *induction* registers: loop counters and array
    # indices updated by short ALU self-chains, never by loads.  Addresses
    # of non-chasing accesses derive from them, which is what gives real
    # loop nests their memory-level parallelism.
    induction_regs = tuple(range(_NUM_REGS - 8, _NUM_REGS))

    def pick_src():
        # Geometric recency: deeper dependency_depth -> older sources ->
        # more independent work in flight.
        depth = min(len(recent_dests), dependency_depth)
        return recent_dests[-1 - randrange(depth)] if depth else 0

    def pick_addr_src():
        return induction_regs[randrange(8)]

    def pick_dest():
        nonlocal next_reg
        next_reg = next_reg % (_NUM_REGS - 9) + 1  # skip r0 and induction
        return next_reg

    def pick_load_src():
        # One of the last four loads' destinations.
        return recent_load_dests[-1 - randrange(
            min(len(recent_load_dests), 4))]

    def data_address():
        nonlocal stream_ptr
        if rand() < hot_fraction:
            return hot_base + (randrange(HOT_BYTES) & ~3)
        if rand() < stream_fraction:
            stream_ptr = (stream_ptr + 8) % cold_bytes
            return cold_base + stream_ptr
        return cold_base + (randrange(cold_bytes) & ~3)

    for _ in range(num_instructions):
        roll = rand()
        mispredict = False
        addr = -1
        dest = -1

        if roll < p_load:
            op = Op.LOAD
            dest = pick_dest()
            if rand() < chase_fraction:
                # Pointer chase: address depends on an earlier load's value
                # and lands somewhere cold (a fresh node).
                srcs = (pick_load_src(),)
                addr = cold_base + (randrange(cold_bytes) & ~3)
            else:
                srcs = (pick_addr_src(),)
                addr = data_address()
            recent_load_dests.append(dest)
            if len(recent_load_dests) > 16:
                del recent_load_dests[0]
        elif roll < p_store:
            op = Op.STORE
            srcs = (pick_addr_src(), pick_src())
            addr = data_address()
        elif roll < p_branch:
            op = Op.BRANCH
            # Branches predominantly test recently loaded values (list
            # walks, compares against table entries): their resolution
            # then inherits the load's (policy-gated) availability.
            if rand() < 0.5:
                srcs = (pick_load_src(), pick_src())
            else:
                srcs = (pick_src(),)
            mispredict = rand() < mispredict_rate
        elif roll < p_fp:
            op = Op.FPU
            dest = pick_dest()
            srcs = (pick_src(), pick_src())
        elif roll < p_mul:
            op = Op.IMUL
            dest = pick_dest()
            srcs = (pick_src(), pick_src())
        elif rand() < 0.30:
            # Induction update: i = i + const (a pure ALU self-chain).
            op = Op.IALU
            reg = induction_regs[randrange(8)]
            dest = reg
            srcs = (reg,)
        else:
            op = Op.IALU
            dest = pick_dest()
            srcs = (pick_src(), pick_src())

        pcs.append(pc)
        ops.append(op)
        dests.append(dest)
        srcss.append(srcs)
        addrs.append(addr)
        mispredicts.append(mispredict)
        if dest >= 0:
            recent_dests.append(dest)
            if len(recent_dests) > 64:
                del recent_dests[0]

        # Program counter walk: sequential, with taken control transfers
        # jumping within the code footprint (loop-biased short hops).
        if op == Op.BRANCH and rand() < 0.45:
            hop = randrange(16, 2048) & ~3
            pc = (pc - hop) % code_bytes if rand() < 0.7 else \
                (pc + hop) % code_bytes
        else:
            pc = (pc + 4) % code_bytes

    return Trace(
        name or profile.name,
        PackedTrace(pcs, ops, dests, srcss, addrs, mispredicts),
        footprint_bytes=profile.footprint_bytes,
        suite=profile.suite,
    )
