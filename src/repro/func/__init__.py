"""Functional secure machine.

Executes real programs (the repro RISC ISA) over *really encrypted,
really MAC-protected* memory, with the authentication control point
governing how far unverified instructions and data may influence
execution.  The machine exposes exactly the observables an adversary with
physical access has:

- the **bus trace** (plaintext fetch addresses, Section 3);
- the **I/O port** output;
- the **page-fault log** (Section 3.3: systems that display/log faulting
  addresses leak them);

plus the ciphertext in external memory, which the attack toolkit mutates.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.func.machine": ("SecureMachine", "MachineResult", "BusEvent"),
    "repro.func.loader": ("load_program",),
})
