"""Cache substrate: set-associative caches and TLBs.

These are *tag-timing* models: they track which lines are resident, LRU
state, dirty bits and per-line metadata (decrypt/verify timestamps), but
not data contents -- the timing simulator is trace-driven, and the
functional machine keeps plaintext in its own structures.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.cache.cache": ("Cache", "CacheAccess", "LineState"),
    "repro.cache.tlb": ("Tlb",),
})
