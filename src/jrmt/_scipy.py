"""scipy's compiled Airy/Bessel and LAPACK modules, without their packages.

Importing ``scipy.special`` or ``scipy.linalg`` runs the subpackage's
``__init__``, which loads scipy's array-API layer (``array_api_compat``,
``numpy.testing``, ``numpy.f2py``): about 0.23 s and 25 MB each, half of a
``jrmt`` command's cold start.  jrmt calls five functions of two compiled
modules (``airy`` and ``jv``, ``zhegvd``, ``dstebz`` and ``dstevd``), so it
loads those modules from their files.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

__all__ = ["compiled", "load"]


# public module -> the compiled module that defines what jrmt calls of it
_COMPILED = {"scipy.special": "scipy.special._special_ufuncs", "scipy.linalg.lapack": "scipy.linalg._flapack"}


@functools.cache
def load(public: str) -> ModuleType:
    """scipy's compiled module behind ``public``, loaded from its file.

    The module goes into ``sys.modules`` under its own name, so a later
    import of ``public`` reuses it and hands out the same function objects;
    one already imported is returned as it is.  Where the file is absent
    (private module names are not a stable API), this imports ``public``,
    which exports the same names.
    """
    name = _COMPILED[public]
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(root, *name.split(".")[1:])
    path = next((stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
    if path is None:
        return importlib.import_module(public)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def compiled(public: str) -> ModuleType:
    """``load(public)`` if it is compiled, else the extension module that the public module imported."""
    module = load(public)
    ext = importlib.machinery.ExtensionFileLoader
    return next(m for m in (module, *vars(module).values()) if isinstance(getattr(m, "__loader__", None), ext))
