"""Package namespaces resolve their public names on first use.

Every package of :mod:`repro` declares its public names through
:func:`repro._lazy.lazy_namespace`: importing a package loads none of
its modules, and each name imports its defining module the first time
it is read.  These tests hold every package to the contract that
eager imports gave: each name in ``__all__`` resolves by attribute and
by ``from ... import``, ``dir()`` lists it, and an unknown name is an
``AttributeError``.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from tests.repro_env import repro_env

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__
    for public in package.__all__:
        value = getattr(package, public)
        namespace = {}
        exec("from %s import %s as value" % (name, public), namespace)
        assert namespace["value"] is value
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec("from %s import no_such_name" % name, {})


def test_importing_a_package_loads_none_of_its_modules():
    probe = ("import sys, repro.exec, repro.obs, repro.experiments; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=repro_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        ["repro._lazy", "repro.exec", "repro.experiments", "repro.obs"])


def _loaded_after(module):
    """The ``repro`` modules a fresh interpreter holds after importing
    ``module``."""
    probe = ("import sys, %s; print('\\n'.join(sorted(m for m in sys.modules "
             "if m.startswith('repro.'))))" % module)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=repro_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_the_kernel_loads_no_legacy_timing_model():
    assert "repro.cpu.core" not in _loaded_after("repro.cpu.native")


def test_the_figures_entry_point_loads_no_attack_code():
    """Table 2 imports its attack harness only when it runs attacks."""
    loaded = _loaded_after("repro.experiments.figures")
    assert "repro.experiments.table2" in loaded
    assert [m for m in loaded if m.split(".")[1] in
            ("attacks", "func", "isa")] == []
