"""Every name the benchmark imports from the package must exist.

``perfbench/`` drives the package only through imports, some of them nested
inside functions, so a deleted or renamed public name would break the
benchmark without failing any other test.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports():
    """(file, module, name) for every import of jrmt or jrmt.* in perfbench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "jrmt" or node.module.startswith("jrmt."):
                    found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name == "jrmt" or alias.name.startswith("jrmt.")
                ]
    return found


IMPORTS = _package_imports()


def test_benchmark_imports_are_found():
    # guards the scan itself: these two are imported at module level and
    # inside run.environment
    names = {(module, name) for _, module, name in IMPORTS}
    assert {("jrmt.orthopoly", "jacobi_pair"), ("jrmt.empirics", "worker_count")} <= names


@pytest.mark.parametrize("path,module,name", IMPORTS, ids=str)
def test_benchmark_import_resolves(path, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")
