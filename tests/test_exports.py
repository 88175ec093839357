"""Every public name a module of the package declares must exist."""

import importlib
import pkgutil

import pytest

import jrmt

# jrmt.__main__ runs the command line when imported, and declares nothing
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(jrmt.__path__, prefix="jrmt.") if m.name != "jrmt.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names {missing}, which the module does not define"


def test_modules_found():
    # the parametrization above must not pass by finding nothing
    assert {"jrmt.cdkernel", "jrmt.empirics", "jrmt.limits"} <= set(MODULES)
