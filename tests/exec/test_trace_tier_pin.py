"""Byte pins of the artifact store's trace tier.

A ``traces/`` entry is a JSON header (key, code fingerprint, column
specs) and a payload of int64 columns.  The fingerprint moves with the
trace code, so the header is not pinned whole; what must never move is
the layout its column specs describe and the payload bytes, which any
store written by an earlier build still holds.
"""

import hashlib
import json

import pytest

from repro.exec import ArtifactStore
from repro.exec.store import _PREAMBLE, _PREAMBLE_LEN
from repro.workloads.spec import get_profile
from repro.workloads.tracegen import generate_trace

PIN_LENGTH = 2000
PIN_SEED = 2006


def _specs(src_val_bytes):
    """The column specs of a ``PIN_LENGTH``-row entry, in file order."""
    row_bytes = 8 * PIN_LENGTH
    names = ("pcs", "ops", "dests", "addrs", "mispredicts")
    specs = [{"name": name, "fmt": "q", "offset": index * row_bytes,
              "bytes": row_bytes} for index, name in enumerate(names)]
    offset = len(names) * row_bytes
    specs.append({"name": "src_off", "fmt": "q", "offset": offset,
                  "bytes": row_bytes + 8})
    specs.append({"name": "src_val", "fmt": "q",
                  "offset": offset + row_bytes + 8,
                  "bytes": src_val_bytes})
    return specs


#: profile -> (meta, src_val bytes, payload sha256)
PINS = {
    "gcc": ({"name": "gcc", "footprint_bytes": 4194304, "suite": "int"},
            24592,
            "46943a29627bce113dd2a9c8e2a21848b6095b16707281d0e454317bb9178083"),
    "mcf": ({"name": "mcf", "footprint_bytes": 25165824, "suite": "int"},
            23680,
            "a42795cd29eafa99bc35e94f36052a4e03e94b4042c8a791f7a016f89e2b6073"),
    "swim": ({"name": "swim", "footprint_bytes": 16777216, "suite": "fp"},
             25920,
             "d4b6b932d812bd2e518e5eafc4661ddf3e52485e518a2ad7cf16e915423c91c1"),
}


def _entry(store, name):
    """``(header, payload)`` of the trace entry published for ``name``."""
    path = store._path("traces", store.trace_name(name, PIN_LENGTH,
                                                  PIN_SEED))
    with open(path, "rb") as handle:
        blob = handle.read()
    _, _, header_len, _, payload_len, _ = _PREAMBLE.unpack_from(blob, 0)
    header_end = _PREAMBLE_LEN + header_len
    payload_off = (header_end + 7) & ~7
    header = json.loads(blob[_PREAMBLE_LEN:header_end])
    return header, blob[payload_off:payload_off + payload_len]


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_entry_bytes_pinned(tmp_path, name):
    meta, src_val_bytes, payload_sha256 = PINS[name]
    store = ArtifactStore(tmp_path / "store")
    trace = generate_trace(get_profile(name), PIN_LENGTH, seed=PIN_SEED)
    assert store.save_trace(trace, name, PIN_LENGTH, PIN_SEED)
    header, payload = _entry(store, name)
    assert header["kind"] == "trace"
    assert header["rows"] == PIN_LENGTH
    assert header["key"] == {"benchmark": name, "length": PIN_LENGTH,
                             "seed": PIN_SEED}
    assert header["meta"] == meta
    assert header["columns"] == _specs(src_val_bytes)
    assert hashlib.sha256(payload).hexdigest() == payload_sha256
