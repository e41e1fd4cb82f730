"""Every name a module under src/ imports is used in that module or listed in its __all__."""
import ast
from pathlib import Path

import groversim

SOURCE = Path(groversim.__file__).parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class _Scope:
    """The names one module, class, function or comprehension body binds, imports and loads."""

    def __init__(self, parent: "_Scope | None", is_class: bool = False):
        self.parent, self.is_class = parent, is_class
        self.bound: set[str] = set()
        self.declared: dict[str, str] = {}  # name -> "global" or "nonlocal"
        self.imported: set[str] = set()
        self.loads: set[str] = set()

    def binder(self, name: str) -> "_Scope":
        """The scope whose binding a load of name in this scope reads."""
        scope = self
        while scope.parent is not None:
            kind = scope.declared.get(name)
            if kind == "global":
                break
            if kind is None and name in scope.bound and (scope is self or not scope.is_class):
                return scope
            scope = scope.parent
        while scope.parent is not None:
            scope = scope.parent
        return scope


def _scopes(tree: ast.Module) -> list[_Scope]:
    """Every scope of the module, the module's own first.

    Default values, decorators, annotations, base classes and a
    comprehension's first iterable are read in the enclosing scope, as
    Python evaluates them there.
    """
    scopes = [_Scope(None)]

    def visit(node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.bound.add(node.name)
        if isinstance(node, ast.ClassDef):
            for child in [*node.decorator_list, *node.bases, *node.keywords]:
                visit(child, scope)
            inner = _Scope(scope, is_class=True)
            scopes.append(inner)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, _FUNCTIONS):
            args = node.args
            every = [a for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            outer = [*getattr(node, "decorator_list", ()), *args.defaults, *filter(None, args.kw_defaults)]
            outer += [a.annotation for a in every if a.annotation is not None]
            outer += [node.returns] if getattr(node, "returns", None) is not None else []
            for child in outer:
                visit(child, scope)
            inner = _Scope(scope)
            scopes.append(inner)
            inner.bound.update(a.arg for a in every)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
            return
        if isinstance(node, _COMPREHENSIONS):
            visit(node.generators[0].iter, scope)
            inner = _Scope(scope)
            scopes.append(inner)
            for i, gen in enumerate(node.generators):
                visit(gen.target, inner)
                if i:
                    visit(gen.iter, inner)
                for cond in gen.ifs:
                    visit(cond, inner)
            for elt in (node.key, node.value) if isinstance(node, ast.DictComp) else (node.elt,):
                visit(elt, inner)
            return
        if isinstance(node, ast.Name):
            (scope.loads if isinstance(node.ctx, ast.Load) else scope.bound).add(node.id)
        elif isinstance(node, ast.Import):
            names = {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            scope.bound.update(names)
            scope.imported.update(names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.asname or alias.name for alias in node.names}
            scope.bound.update(names)
            if node.module != "__future__":
                scope.imported.update(names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            scope.declared.update(dict.fromkeys(node.names, kind))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bound.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for child in tree.body:
        visit(child, scopes[0])
    return scopes


def unused_imports(source: str) -> list[str]:
    """The names that source binds by import and never reads, sorted.

    A load counts only for the binding it reads: a function that assigns
    its own local of an imported name does not use the import.
    """
    tree = ast.parse(source)
    scopes = _scopes(tree)
    used = {(id(scope.binder(name)), name) for scope in scopes for name in scope.loads}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update((id(scopes[0]), name) for name in ast.literal_eval(node.value))
    return sorted(name for scope in scopes for name in scope.imported if (id(scope), name) not in used)


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


def test_a_local_of_the_same_name_does_not_use_an_import():
    source = (
        "import re\n"
        "def f(values):\n"
        "    re = values[0]\n"
        "    return re\n"
    )
    assert unused_imports(source) == ["re"]


def test_loads_are_resolved_through_nested_scopes():
    source = (
        "import a, b, c, d, e, f, g\n"
        "def outer(x=a):\n"                      # a default is read in the module
        "    b = 1\n"
        "    def inner():\n"
        "        return b + c\n"                  # b is outer's local, c the module's
        "    return inner\n"
        "class K:\n"
        "    d = 2\n"
        "    def m(self):\n"
        "        return d\n"                      # a class body is not an enclosing scope
        "def g2():\n"
        "    global e\n"
        "    e = e + 1\n"                         # the module's e
        "    g = lambda c=c: c\n"                # a lambda's default is read in g2
        "    return [f for f in range(3)]\n"     # the comprehension's f is its own
        "def h():\n"
        "    import g\n"                          # a local import, read where it is bound
        "    return g\n"
    )
    assert unused_imports(source) == ["b", "f", "g"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert len(found) >= 8  # the package's modules were read
    assert {name: names for name, names in found.items() if names} == {}
