"""Bench: regenerate Table 2 (security characteristics, empirically)."""

from conftest import once

from repro.experiments import table2


def test_table2(benchmark):
    text = once(benchmark, lambda: table2.emit(empirical=True)[0])
    print("\n" + text)
    # The two recommended combinations block every fetch-channel exploit.
    for line in text.splitlines():
        if line.startswith(("commit+fetch", "commit+obfuscation")):
            assert "LEAK" not in line
