"""The trace generator's reference model.

:func:`_generate_python` is the generator loop in Python, the oracle
that :func:`repro.cpu.native.tracegen` mirrors draw for draw;
``tests/workloads/test_tracegen_oracle.py`` holds the two in lockstep.
"""

from repro.workloads.trace import NUM_REGS, Op, PackedTrace


def _generate_python(rng, doubles, ints, num_instructions):
    """The generator loop in Python: the oracle of the native one.

    Draws from ``rng`` (a ``random.Random``) with
    :func:`repro.workloads.tracegen._config`'s blocks; the rows are
    appended to six local lists, packed into the :class:`PackedTrace`
    int64 columns once at the end.
    """
    rand = rng.random
    randrange = rng.randrange
    (p_load, p_store, p_branch, p_fp, p_mul, hot_fraction, stream_fraction,
     chase_fraction, mispredict_rate) = doubles
    (dependency_depth, code_bytes, cold_base, cold_bytes, hot_base,
     hot_bytes) = ints

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
    induction_regs = tuple(range(NUM_REGS - 8, NUM_REGS))

    def pick_src():
        # Geometric recency: deeper dependency_depth -> older sources ->
        # more independent work in flight.
        depth = min(len(recent_dests), dependency_depth)
        return recent_dests[-1 - randrange(depth)] if depth else 0

    def pick_addr_src():
        return induction_regs[randrange(8)]

    def pick_dest():
        nonlocal next_reg
        next_reg = next_reg % (NUM_REGS - 9) + 1  # skip r0 and induction
        return next_reg

    def pick_load_src():
        # One of the last four loads' destinations.
        return recent_load_dests[-1 - randrange(
            min(len(recent_load_dests), 4))]

    def data_address():
        nonlocal stream_ptr
        if rand() < hot_fraction:
            return hot_base + (randrange(hot_bytes) & ~3)
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

    return PackedTrace.pack(pcs, ops, dests, srcss, addrs, mispredicts)
