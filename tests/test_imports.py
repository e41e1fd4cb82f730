"""Every name a module under src/ imports is used in that module or listed in its __all__."""
import ast
from pathlib import Path

import groversim

SOURCE = Path(groversim.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that source binds by import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, numpy as np\n"
        "from .states import PureState as P, check_integer, NORM_ATOL\n"
        "__all__ = ['NORM_ATOL']\n"
        "def f(x: P):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["check_integer", "os"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert len(found) >= 8  # the package's modules were read
    assert {name: names for name, names in found.items() if names} == {}
