"""Bench: regenerate Table 1 (decryption vs authentication latency)."""

from conftest import once

from repro.experiments import table1


def test_table1(benchmark):
    text = once(benchmark, lambda: table1.emit(memory_fetch_latency=200)[0])
    print("\n" + text)
    assert "counter+hmac" in text
