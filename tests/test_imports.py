"""The package's runtime dependency is numpy alone."""
import ast
import sys
from pathlib import Path

import pytest

import tlsbath

_MODULES = sorted(Path(tlsbath.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    """Every absolute import of a module names the standard library, numpy
    or tlsbath. scipy and hypothesis are test extras, so an import of either
    would pass every other test where they are installed."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert not found - {*sys.stdlib_module_names, "numpy", "tlsbath"}, sorted(found)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind that nothing in it reads. Imports
    from __future__ and star imports bind none; a name listed in __all__ is
    read."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted([*_MODULES, *Path(__file__).parent.glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_no_unused_imports(path):
    """Every name a module of the package or of the tests imports is used,
    so that a removal leaves no import of what it removed behind."""
    assert not _unused_imports(ast.parse(path.read_text(), filename=str(path)))
