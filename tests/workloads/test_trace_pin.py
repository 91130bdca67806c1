"""Pins of the generated trace columns.

Every consumer of a trace -- the timing core, the structural prepass,
the native replay kernel and the artifact store -- reads only its
``PackedTrace`` columns, so these digests pin exactly what a trace is:
each SPEC2000 profile's generator output at two seeds, and one
execution-driven capture of a functional-machine program.
"""

import hashlib

import pytest

from repro import load_program, make_policy
from repro.func import programs
from repro.func.machine import SecureMachine
from repro.workloads.capture import capture_trace
from repro.workloads.spec import SPEC2000_PROFILES, get_profile
from repro.workloads.tracegen import generate_trace

PIN_LENGTH = 3000

GENERATED = {
    2006: {
        "ammp": "d73aa1e5c603d7ad1b97a13edee9ef31cdcb8a3c70102cfb79cc7ae51caca513",
        "applu": "3333bd0591c5cb26798da60ecc41665d260cac5e64504b3400e6c5a09d4cda17",
        "art": "18df060847d7f7c78148e869b49893c9e843b6e633cac7bb22dd3652ea8f1252",
        "bzip2": "e2aa71e293cf70504abc987cb55a71ce05cc68f1d2432732c522857283f11871",
        "equake": "1ade692799e7f9f3b2e2505324a90bd5456d1afa94398b9cc564db13ffd01bb4",
        "facerec": "e8251bd64b65ef4ac9c68d683c2d38a22e6c7f2f40e4109b5eddc4b0012dcff3",
        "galgel": "c5002807d7856f752c28de9101c7b60affcba1535563b948b1678c6d87467310",
        "gap": "5aa2ab0aa71ab4cc51cee987d06c4a84e3c9b9c29556e76df0290f9471976a3c",
        "gcc": "c05bd5c391d4eb0755a7c9e7a628a80ce957bbb7d7c5f5781d6df873539dc749",
        "gzip": "6fa608ddacba67e10ed11462e746287c7a4f6787b2471c1e4f832c73e8967262",
        "lucas": "150e296b4f216ce0de06b7d536047d9aaad46c8df71d405cc0efd083ab45b90a",
        "mcf": "ccedf00680b2768749e4b6e3083b53a0d23d424aa9641dff7c8e7a916799edf3",
        "mesa": "1cded1beadab354363673bfa5c6225ef7fef8b069742dd6839ad6a18133148af",
        "mgrid": "ec46e6a4419d3b8fbb3ba1558ed322480483e34668517989068909d23b7cb3fb",
        "parser": "fdefc84b33e57048fc39bdc902b5151174a532fcebedae937f0eb65a7af87a50",
        "swim": "8c7277b6e7988522d2d20db189e6b78177d9f088c593a7d4b42e6a8f20b49f04",
        "twolf": "1547d3d16e8ec41598ab98c82f1e45b5bcd45064a979e4b81916f2e886f2c72e",
        "vpr": "f3651a9aba79c42e7d81899ee1140f88d44ab20d5058219b573beecce199ea36",
    },
    7: {
        "ammp": "9a6b3c909d96754f18c48964bc9c1ecd25677915f5fd45100fbc35cf5be0adda",
        "applu": "5265c102f8dd6aa9a8eb5750cbf54ee5b7282935ea1a5eb576b71013381a2a2d",
        "art": "c06b424114fab9c4b908d3d60d861d095023479bf7eb1f1dea3bab554ceaae6a",
        "bzip2": "c983b2cbb907cfe8c4a5d4a8c1073546cc86b938d52f3798aa2b4232f3068b56",
        "equake": "bab9a00ea062ff75f303f0efdbc06e814ba0bfef84e6df4b5abd41027fb4b509",
        "facerec": "c708f3d5b8955846235494f52fa7761934d02d895da258beaad698ae243a0da3",
        "galgel": "30a02200e68af3924ceccc9fcdd9f9de4e2bfde238f3d2229ecbb06c35acf4d2",
        "gap": "00fbc64b72787efde76b3b5edef8a9153cdb5307db7a43137090b9ab90dedbb8",
        "gcc": "a7fd485aad25a098abd99c46abd9c740f64d5ff26a6266d06a7dac1623f17829",
        "gzip": "ce1dde4029387f8952dde5c2c8ffb6a0522a1ab263b2a242960c9b49789b18ea",
        "lucas": "8edbf77875ffa8c427dda90595a9fef7e9e06b0e75853ec12b301e244d42265e",
        "mcf": "e0e8a8ca42ce1b4d53b0a984f916e5cfcb0e96ed9c5e04296f328c8adb0bd5bc",
        "mesa": "427e0ff06a470f808886f94264b4b26447d321e6191ff0ff8cfaac6f3cf6d68d",
        "mgrid": "b7c10f0485db7a8d2440e7c029e22ee2a7a54c9c2101a18c37225a3e9b906869",
        "parser": "d2346c32fd2c3d0f5ea65be7298892a9b0ccc127597bbea58949a328c37eea65",
        "swim": "a7a20ad3c10df3a60fd71feca278e9ab40aedb91d1672c4c4fba550e59ebab2a",
        "twolf": "f1b6d480581f82c267900431bc38360e8a1e64ddb28872e72652f46b48ffc3e2",
        "vpr": "4f920297a3049ab54e0292caf4ff8ca0ecab07d883978f2ee61f5be697c8b652",
    },
}

CAPTURED_LENGTH = 326
CAPTURED_FOOTPRINT = 16136
CAPTURED = "a004a05ab46bce4db1da566b4e976b2cdcf3bfdbf1807ebe14eaa9ca995aa225"


def columns_sha256(trace):
    """sha256 over the trace's rows, independent of their encoding.

    Taken over the six row fields (``srcs`` as tuples, ``mispredict``
    as bools), the form the generators produced before the columns
    became int64, so the pins predate and outlive that encoding.
    """
    pcs, ops, dests, srcss, addrs, mispredicts = zip(*trace.packed().rows())
    canonical = (tuple(pcs), tuple(ops), tuple(dests),
                 tuple(tuple(srcs) for srcs in srcss), tuple(addrs),
                 tuple(bool(m) for m in mispredicts))
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def test_every_profile_is_pinned():
    for pins in GENERATED.values():
        assert sorted(pins) == sorted(SPEC2000_PROFILES)


@pytest.mark.parametrize("seed", sorted(GENERATED))
@pytest.mark.parametrize("name", sorted(SPEC2000_PROFILES))
def test_generated_columns_pinned(name, seed):
    trace = generate_trace(get_profile(name), PIN_LENGTH, seed=seed)
    assert len(trace) == PIN_LENGTH
    assert columns_sha256(trace) == GENERATED[seed][name]


def test_captured_columns_pinned():
    machine = SecureMachine(make_policy("decrypt-only"))
    load_program(machine, programs.LIST_WALK,
                 data=programs.list_walk_data(nodes=64, stride=0x100))
    trace = capture_trace(machine, max_steps=5000)
    assert len(trace) == CAPTURED_LENGTH
    assert trace.footprint_bytes == CAPTURED_FOOTPRINT
    assert columns_sha256(trace) == CAPTURED
