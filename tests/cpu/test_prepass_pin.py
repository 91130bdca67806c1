"""Pinned digests of the structural prepass columns.

The prepass is the structural half of every replayed result: a drift in
any column moves cycles somewhere downstream.  These digests pin every
column, every scalar and the ``miss_summary`` of the walk for each
SPEC2000 profile, plus corner configurations that force the rarer
structural paths (same-set thrash, page re-encryption bursts, DRAM row
conflicts, no warmup).  Each corner also asserts that it reached the
behaviour it is there for.
"""

import hashlib
from array import array
from dataclasses import replace

import pytest

from repro.config import CacheConfig, DramConfig, SimConfig
from repro.cpu import native
from repro.cpu.prepass import build_prepass
from repro.exec.cache import cached_trace
from repro.workloads.spec import fp_benchmarks, int_benchmarks

needs_kernel = pytest.mark.skipif(
    not native.native_available(),
    reason="build_prepass needs the native kernel (no C compiler)")

LENGTH = 3000
WARMUP = 1500

COLUMNS = ("if_flags", "a_pre", "a_lvl", "a_ref", "a_wb",
           "m_wb", "m_counter", "d_bank", "d_cat")
SCALARS = ("num_instructions", "warmup", "n_accesses", "n_misses",
           "n_meta", "n_writes", "cc_hits", "cc_misses", "cc_evictions",
           "cc_writebacks", "row_hits", "row_empty", "row_conflicts",
           "page_reencryptions", "dram_ops")


def prepass_digest(prepass):
    """sha256 over every pinned column, scalar and the miss summary."""
    digest = hashlib.sha256()
    for name in COLUMNS:
        digest.update(name.encode())
        digest.update(array("q", list(getattr(prepass, name))).tobytes())
    for name in SCALARS:
        digest.update(("%s=%r;" % (name, getattr(prepass, name))).encode())
    digest.update(repr(prepass.miss_summary).encode())
    return digest.hexdigest()


PROFILE_DIGESTS = {
    "bzip2":
        "e575d6e60189a90597e25bc58728f6a0f862910a784340e45ad507638922637b",
    "gap":
        "11b61f5a1e2928beed02c2c3b9466a531e6f1f0cd3158ca692c348a5c7e107f4",
    "gcc":
        "e3284fc76c90fdb2cbb3a16649c85c879290c7698a8308600ed0aa496302c5d3",
    "gzip":
        "4b3bfb6056a06e0c6156267158a0b26d2c55967fdde91957e8f98f61cdf9044b",
    "mcf":
        "6c3a176df382f010802d378b5d8e6a2eb6c22f11cc3fbebe3324ddfdc3d726c9",
    "parser":
        "1ac6e541db36d58b551f57ec2da2d50068071746e87785ec3a23dd093b9ff2ce",
    "twolf":
        "a7c5217aaa0b7cc599fcc1752d75d9ce379d690358bde1d22370472f00624adc",
    "vpr":
        "8e97e894ec947c7ef64ac2a8dd0055f31bbcc118fb70263babe9011d90625e1f",
    "ammp":
        "9d9a17c45578a05670f1243e24d4f8648ba088379f8d6fd6177389af02af5788",
    "applu":
        "e9b236d89b893329e6a8caa8fc8bdc3596188605a8bf5ddd8e3be8ff4588c3d3",
    "art":
        "11d18c60ee2d110b9b986c596655b9f89150cca2031ef90a13868de78ece32f2",
    "equake":
        "a81d965bd57904d5233f49ada43048a78687998ec1ee7ff7fb302f56f5ac2b89",
    "facerec":
        "57a68071ada303994efb7476c8bf053cfb8e7daba15b1e8c8fbde923efa24bdf",
    "galgel":
        "2495074b4baf7ced70dab364548f0a3cfc626fdbb40c854ab95000149a582e85",
    "lucas":
        "702f731ca0a8b24c1f97a2838b43c182f9bd0c6a949c35915f4da306931d9be8",
    "mesa":
        "5edc3af80e309a501e9ae53c4b3c204b134d1109cf2823a3166aa98890cd67ff",
    "mgrid":
        "88f1ba339d1bbe2203dcd7bdf0e9f4801e070cfa665f293fc90f2bf77633a92a",
    "swim":
        "5be8caa7eb04e5ceede25c509344ad029cf5df0cd83b9419337d60e016352b19",
}

CORNER_DIGESTS = {
    "l2-two-sets":
        "7cd9b247eaf687a6a583907c74aea77a87e951b33a66b4f15fafb9e104e40dac",
    "minor-2-bits":
        "8ca7933e0c876e80b427d166f2f312dd6303457ec17a722154ca6b835689308a",
    "two-banks-small-rows":
        "7511731cc39ccf142d9c71229be21f7f010f4a775dc44e8ebd16ffbfd027be7d",
    "no-warmup":
        "7c64ca6bcc51c12ba2ac6a0f51e2d5939b882f0b790c37219f3fb02eeae58b04",
}


def corner_config(name):
    base = SimConfig()
    if name == "l2-two-sets":
        return replace(base, l2=CacheConfig("l2", 2 * 4 * 64, 64, 4, 4))
    if name == "minor-2-bits":
        # Tiny L1D and L2 so the same lines are written back repeatedly.
        return replace(base, l1d=CacheConfig("l1d", 2 * 32, 32, 1, 1),
                       l2=CacheConfig("l2", 2 * 4 * 64, 64, 4, 4)
                       ).with_secure(split_counters=True,
                                     minor_counter_bits=2)
    if name == "two-banks-small-rows":
        return replace(base, dram=DramConfig(num_banks=2, row_bytes=512,
                                             interleave_bytes=64))
    assert name == "no-warmup"
    return base


def corner_prepass(name):
    warmup = 0 if name == "no-warmup" else WARMUP
    trace = cached_trace("mcf", LENGTH, SimConfig().seed)
    return build_prepass(trace, corner_config(name), warmup=warmup)


@needs_kernel
@pytest.mark.parametrize("bench", int_benchmarks() + fp_benchmarks())
def test_profile_columns_pinned(bench):
    trace = cached_trace(bench, LENGTH, SimConfig().seed)
    prepass = build_prepass(trace, SimConfig(), warmup=WARMUP)
    assert prepass_digest(prepass) == PROFILE_DIGESTS[bench]


@needs_kernel
@pytest.mark.parametrize("name", sorted(CORNER_DIGESTS))
def test_corner_columns_pinned(name):
    prepass = corner_prepass(name)
    assert prepass_digest(prepass) == CORNER_DIGESTS[name]


@needs_kernel
class TestCornersReachTheirBehaviour:
    def test_l2_two_sets_thrashes(self):
        prepass = corner_prepass("l2-two-sets")
        assert prepass.miss_summary["l2"] > 0.5
        assert sum(prepass.m_wb) > 0          # dirty L2 victims written back

    def test_minor_counters_overflow(self):
        prepass = corner_prepass("minor-2-bits")
        assert prepass.page_reencryptions > 0
        assert max(prepass.a_wb) > 1 or max(prepass.m_wb) > 1

    def test_two_banks_conflict(self):
        prepass = corner_prepass("two-banks-small-rows")
        trace = cached_trace("mcf", LENGTH, SimConfig().seed)
        default = build_prepass(trace, SimConfig(), warmup=WARMUP)
        assert set(prepass.d_bank) == {0, 1}
        assert prepass.row_conflicts > default.row_conflicts

    def test_no_warmup_counts_whole_run(self):
        prepass = corner_prepass("no-warmup")
        assert prepass.warmup == 0
        assert prepass.miss_summary["l1i"] > 0  # cold misses included
