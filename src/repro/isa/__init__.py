"""A small 32-bit RISC ISA used by the functional secure machine.

The paper's exploits (Section 3) are code- and data-tampering attacks on a
RISC processor.  To execute them end-to-end against real encrypted memory
we define a compact load/store ISA with fixed 32-bit instruction words --
"RISC instructions even in encrypted format are highly predictable", and
fixed-width words are what makes the disclosing-kernel XOR-splice work.

- :mod:`repro.isa.instructions` -- the instruction model and opcode table.
- :mod:`repro.isa.encoding` -- binary encode/decode of instruction words.
- :mod:`repro.isa.assembler` -- a two-pass assembler for test programs.
- :mod:`repro.isa.disassembler` -- inverse rendering for diagnostics.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.isa.instructions": ("Instruction", "InstructionFormat", "OpClass",
                               "OPCODES", "FORMATS", "op_class"),
    "repro.isa.encoding": ("encode", "decode"),
    "repro.isa.assembler": ("assemble", "assemble_to_bytes"),
    "repro.isa.disassembler": ("disassemble", "disassemble_word"),
})
