"""Dead-code guard: every import of a module in `blockdet` is used, and every
module-level function or class is referenced by some module; a public one
may instead be exported by the package's `__init__`.  Also a recursion
guard: no function of the package calls itself by name; a cache-probe
guard: no module asks an instance dict what has been built; and an index
guard: the lookahead reads no in_edges."""

import ast
from pathlib import Path

import blockdet

PACKAGE = Path(blockdet.__file__).parent


def _modules() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _imported(tree: ast.Module) -> dict:
    """Each name a module binds by an import, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """The plain names a module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used():
    unused = [
        f"{module}: {name} (line {line})"
        for module, tree in _modules().items()
        if module != "__init__.py"  # the package's re-exports
        for name, line in _imported(tree).items()
        if name not in _read(tree)
    ]
    assert not unused


def _unreferenced(public: bool) -> list:
    """The module-level functions and classes, public or private, that no
    module names: not read, not read as an attribute, not imported by name
    (so `__init__`'s re-exports count as references)."""
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}: {node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") != public
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def test_every_private_definition_is_referenced():
    assert not _unreferenced(public=False)


def test_every_public_definition_is_exported_or_referenced():
    assert not _unreferenced(public=True)


def _self_calls(tree: ast.Module) -> list:
    """The calls a function makes to itself by name: ``f(...)`` inside ``f``
    (nested functions included), or ``self.f(...)`` / ``cls.f(...)``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = func.attr if func.value.id in ("self", "cls") else None
            else:
                name = getattr(func, "id", None)
            if name == node.name:
                found.append(f"{node.name} (line {call.lineno})")
    return found


def test_no_function_calls_itself():
    # No traversal may depend on Python's recursion limit.
    sample = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def g(self):\n        return self.g() + self.h.g()\n"
        "def outer():\n    def inner():\n        return inner()\n    return len(outer)\n"
    )
    assert _self_calls(sample) == ["f (line 2)", "g (line 5)", "inner (line 8)"]
    recursive = [
        f"{module}: {call}" for module, tree in _modules().items() for call in _self_calls(tree)
    ]
    assert not recursive


def _dict_probes(tree: ast.AST) -> list:
    """The membership tests on an instance dict, ``key in x.__dict__`` or
    ``key not in vars(x)``: probes of what a cached property has built."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, right in zip(node.ops, node.comparators):
            is_dict = (isinstance(right, ast.Attribute) and right.attr == "__dict__") or (
                isinstance(right, ast.Call) and getattr(right.func, "id", None) == "vars"
            )
            if isinstance(op, (ast.In, ast.NotIn)) and is_dict:
                found.append(f"line {node.lineno}")
    return found


def test_no_module_probes_an_instance_dict():
    # What a value keeps is read through the value, not found out from its
    # dict; the one fallback decides from what it was given.
    sample = ast.parse(
        "x = 'a' in b.__dict__\ny = 'a' not in vars(b)\nz = 'a' in b.d or b.__dict__ == {}\n"
    )
    assert _dict_probes(sample) == ["line 1", "line 2"]
    probes = [f"{module}: {probe}" for module, tree in _modules().items() for probe in _dict_probes(tree)]
    assert not probes


def _attribute_reads(tree: ast.AST, name: str) -> list:
    """The lines that read attribute ``name`` of anything."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
    ]


def test_lookahead_reads_no_in_edges():
    # The pair walk reads each pair's out-edges only, so the lookahead never
    # builds the automaton's second edge index.
    sample = ast.parse("x = a.in_edges\ny = getattr(a, 'in_edges')\nz = a.out_edges\n")
    assert _attribute_reads(sample, "in_edges") == ["line 1"]
    assert not _attribute_reads(_modules()["lookahead.py"], "in_edges")
