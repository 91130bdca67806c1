"""Secure-memory engine (Figure 5 of the paper).

Every block fetched from external memory passes through two decoupled
paths:

- the **decryption path** (counter cache + counter-mode pad precompute),
  which usually finishes as the data arrives; and
- the **authentication path** (the authentication queue + MAC verification
  unit, optionally a CHTree hash tree), which finishes tens to hundreds of
  cycles later.

The gap between the two is the security window the authentication control
points (:mod:`repro.policies`) manage.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.secure.auth_queue": ("AuthQueue", "NO_REQUEST"),
    "repro.secure.counter_cache": ("CounterCache",),
    "repro.secure.decryption": ("DecryptionEngine",),
    "repro.secure.verifier": ("MacVerifier",),
    "repro.secure.hash_tree": ("MerkleTree", "HashTreeTiming"),
    "repro.secure.metadata": ("MetadataLayout",),
    "repro.secure.remap": ("RemapTable", "AddressObfuscator"),
    "repro.secure.engine": ("ProtectedFetch", "SecureMemoryEngine"),
})
