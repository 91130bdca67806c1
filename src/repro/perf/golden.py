"""Pinned golden timing results for the perf-parity suite.

Every performance optimisation of the simulator's hot path must be
*timing-neutral*: cycle counts, IPC and every StatGroup counter must come
out bit-identical to the reference implementation.  This module pins the
reference outcome of a small (benchmark x policy) matrix:

- ``GOLDEN_CYCLES`` -- the exact measured-region cycle count per cell;
- ``GOLDEN_DIGESTS`` -- a SHA-256 digest over the cell's full stats
  snapshot plus per-level miss rates, so *any* counter drift is caught,
  not just end-to-end cycles.

The digests are computed over a JSON round-trip of the payload (bucket
keys normalised to strings, canonical key order), so they are stable
across the process boundary and the checkpoint journal.

``LEGACY_ONLY_CYCLES`` / ``LEGACY_ONLY_DIGESTS`` pin one benchmark under
each configuration beyond the default one (hash tree, prefetching, CBC,
address obfuscation), pinned from the legacy simulator.  The hash-tree
and obfuscation cells are also evaluated through the shared pass (the
native walk of that structure plus the replay) against the same pins;
CBC and prefetching stay outside the shared-pass envelope, so only the
legacy simulator evaluates those.  These cells keep both memory-system
walks honest beyond the default configuration.
"""

import hashlib
import json
from dataclasses import replace

from repro.config import SimConfig

GOLDEN_BENCHMARKS = ("mcf", "swim", "twolf")
GOLDEN_POLICIES = ("decrypt-only", "authen-then-issue",
                   "authen-then-commit", "authen-then-write")
GOLDEN_INSTRUCTIONS = 3000
GOLDEN_WARMUP = 1000

GOLDEN_CYCLES = {
    "mcf/authen-then-commit": 101441,
    "mcf/authen-then-issue": 114927,
    "mcf/authen-then-write": 99663,
    "mcf/decrypt-only": 95395,
    "swim/authen-then-commit": 18696,
    "swim/authen-then-issue": 19613,
    "swim/authen-then-write": 18337,
    "swim/decrypt-only": 17153,
    "twolf/authen-then-commit": 73448,
    "twolf/authen-then-issue": 81601,
    "twolf/authen-then-write": 72711,
    "twolf/decrypt-only": 69251,
}

GOLDEN_DIGESTS = {
    "mcf/authen-then-commit":
        "bb0ffe233b5fef6f71dab9da02414e9770b61071934e5bc84aa21c4d9fe6ed37",
    "mcf/authen-then-issue":
        "00348b457504e3d1d9c2161c2308cbf99522e7a030d09b1c867cd682c5432345",
    "mcf/authen-then-write":
        "8bd9d8f43e0a533a41b837a287c6325877d45cc62ca67200115d8c9c7b71876b",
    "mcf/decrypt-only":
        "24227fd4df92f9813afda975dd087f554ddba0c8f4860bb7b70836d911fc322a",
    "swim/authen-then-commit":
        "e1fe07d5116f5b07fe588b68bc24a6be84052f82e2a088a21adba5d33edcfb6b",
    "swim/authen-then-issue":
        "643f0c20be43ff6a6e7e49231c89c133d76c92d2b43ad61709925db26042efbb",
    "swim/authen-then-write":
        "739894ce6fab071cf56cbd85e51d0a5878fdc53c2081900dcf8f9112e363ec53",
    "swim/decrypt-only":
        "94992655c19e24346c2529920dfc3d6d534a79b8ef9f4668282a0cb46f5e05aa",
    "twolf/authen-then-commit":
        "3b537115a6b6b9b463fee13d593222814903e61b6084164d56fcce880aade96e",
    "twolf/authen-then-issue":
        "1e2bb0890c7968cd525e7bfee04d09d6965282fc4bc391c54f728c64bbd5f24c",
    "twolf/authen-then-write":
        "6c0963a5bd628587f8dacebd33a0797e1997df18a4e917e0f582ae510b96174f",
    "twolf/decrypt-only":
        "fd2b8f407cf0cc327ce2cee6ad33730b4211cdb027f125dd07c6bb2f21d40c49",
}

#: Benchmark of the beyond-default cells, keyed
#: ``"<bench>/<config variant>/<policy>"``.
LEGACY_ONLY_BENCHMARK = "mcf"

LEGACY_ONLY_CYCLES = {
    "mcf/hash-tree/authen-then-commit": 361780,
    "mcf/prefetch-2/authen-then-commit": 92164,
    "mcf/cbc/authen-then-commit": 150182,
    "mcf/default/commit+obfuscation": 146017,
}

LEGACY_ONLY_DIGESTS = {
    "mcf/hash-tree/authen-then-commit":
        "0f999d7d36d1dde470b4edab3edfc8dc12a86e399c2e7469fc62680c8fbb8312",
    "mcf/prefetch-2/authen-then-commit":
        "cbb91e29e86bd4ac3d7c90b3a0cf1597ed4f41287da299f0b879a32781961a18",
    "mcf/cbc/authen-then-commit":
        "c08a684963f41d62721cc154a7972820af33f487bd614e830a0febe70ab2dfac",
    "mcf/default/commit+obfuscation":
        "a6cbaedb6bd74c90c653162b92a357461fecc341aacf06a05a0294293bb3c0ab",
}


def golden_cells():
    """The pinned ``(benchmark, policy)`` matrix, in digest order."""
    for bench in GOLDEN_BENCHMARKS:
        for policy in GOLDEN_POLICIES:
            yield bench, policy


def legacy_only_cells():
    """The pinned beyond-default cells: ``(key, benchmark, config,
    policy)``, with the same instruction and warmup counts as the
    golden matrix."""
    base = SimConfig()
    variants = (
        ("hash-tree", base.with_secure(hash_tree_enabled=True),
         "authen-then-commit"),
        ("prefetch-2", replace(base, prefetch_degree=2),
         "authen-then-commit"),
        ("cbc", base.with_secure(encryption_mode="cbc"),
         "authen-then-commit"),
        ("default", base, "commit+obfuscation"),
    )
    for variant, config, policy in variants:
        key = "%s/%s/%s" % (LEGACY_ONLY_BENCHMARK, variant, policy)
        yield key, LEGACY_ONLY_BENCHMARK, config, policy


def stats_digest(stats_dict, miss_summary):
    """Canonical digest of one run's stats snapshot.

    JSON round-trips the payload first so histogram bucket keys (ints in
    a live StatGroup, strings after any JSON hop) always digest the same.
    """
    payload = json.loads(json.dumps(
        {"stats": stats_dict, "miss_summary": miss_summary}))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
