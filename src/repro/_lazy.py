"""Package namespaces that import a public name on its first use.

Every package ``__init__`` of :mod:`repro` declares which module defines
each of its public names and resolves them through
:func:`lazy_namespace` (PEP 562 module ``__getattr__`` and
``__dir__``).  ``from repro import SimConfig`` and
``repro.exec.ArtifactStore`` keep working, but importing a package
loads none of its modules: a command pays only for the modules it runs
(``docs/architecture.md``, "Package namespaces and start-up").
"""

import sys
from importlib import import_module


def lazy_namespace(package, exports):
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it, in ``__all__`` order.  A name listed under the
    package itself is one of its submodules.  A resolved name is stored
    in the package, so each one is imported once.
    """
    namespace = sys.modules[package]
    source = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        if module == package:
            value = import_module("%s.%s" % (package, name))
        else:
            value = getattr(import_module(module), name)
        setattr(namespace, name, value)
        return value

    def __dir__():
        return sorted(set(vars(namespace)) | set(source))

    return list(source), __getattr__, __dir__
