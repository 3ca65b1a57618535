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
