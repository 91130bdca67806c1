"""Memory substrate: physical store, SDRAM timing, bus and controller.

The timing half (:mod:`repro.mem.dram`, :mod:`repro.mem.bus`,
:mod:`repro.mem.controller`) models the PC-SDRAM system of Table 3 --
banks, open rows, CAS/RCD/RP and a 200 MHz 8-byte data bus.  The
functional half (:mod:`repro.mem.physical`) is the byte-addressable
backing store that the functional secure machine (and the attacker)
actually reads and writes.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.mem.bus": ("BandwidthBus",),
    "repro.mem.dram": ("DramModel", "PageStatus"),
    "repro.mem.controller": ("MemAccess", "MemoryController"),
    "repro.mem.physical": ("PhysicalMemory",),
})
