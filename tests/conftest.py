"""Fixtures shared across the test packages."""

import pytest

from repro.cpu import native


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """A machine with no working C compiler and an empty kernel cache.

    The native kernel cannot be built, so ``native_available()`` is
    False until the fixture's teardown forgets the failed load.
    """
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "kernel"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    native.reset()
    yield
    native.reset()
