"""Fixtures shared across the test packages."""

import pytest
from hypothesis import settings

from repro.cpu import native

# A longer run of the lockstep oracle (tests/cpu/test_kernel_oracle.py)
# for CI: ``pytest --hypothesis-profile=oracle-long``.
settings.register_profile("oracle-long", max_examples=1000)


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """A machine with no working C compiler and an empty kernel cache.

    The native kernel cannot be built, so every use of it raises
    :class:`~repro.errors.KernelUnavailableError` until the fixture's
    teardown forgets the failed load.
    """
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "kernel"))
    native.reset()
    yield
    native.reset()
