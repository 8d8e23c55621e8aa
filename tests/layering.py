"""Import-graph and definition checks on the package's modules, read with `ast`.

The layering tests in test_touchstone.py and test_cli.py use these, so
that a module's place in the import graph is checked without importing it.
"""

import ast
from pathlib import Path

import permeameter


def module_tree(name: str) -> ast.Module:
    return ast.parse((Path(permeameter.__file__).parent / f"{name}.py").read_text())


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` names, by its name inside the
    package ("" for the package itself), or None for another package."""
    if node.level or (node.module or "").startswith("permeameter"):
        return (node.module or "").removeprefix("permeameter").lstrip(".")
    return None


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by their name inside the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("permeameter")}
    return found


def names_imported_from(tree: ast.Module, module: str) -> set[str]:
    """The names a module imports with `from <package module> import ...`."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _package_module(node) == module
        for alias in node.names
    }


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines itself: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def unreferenced_package_imports(tree: ast.Module) -> set[str]:
    """The names a module imports from the package but never reads; a name
    listed in the module's `__all__` counts as read."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _package_module(node) is not None
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {getattr(t, "id", None) for t in node.targets}:
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return imported - read
