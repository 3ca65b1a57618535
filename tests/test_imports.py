"""Static checks of the sources: the package's runtime dependency is numpy
alone, and nothing a module imports or defines is left unread."""
import ast
import re
import sys
from collections import Counter
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


_ROOT = Path(__file__).resolve().parents[1]


def _module_names(tree: ast.Module) -> list[str]:
    """The names a module defines at its top level: its functions, classes
    and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_name_is_used():
    """Every function, class and assigned name at the top level of a module
    of the package appears as a whole word in src, tests or benchmarks more
    often than it is defined, so that a change leaves no constant or helper
    behind that nothing reads."""
    words = Counter(word for folder in ("src", "tests", "benchmarks")
                    for path in (_ROOT / folder).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text()))
    defined = Counter(name for path in _MODULES
                      for name in _module_names(ast.parse(path.read_text())))
    assert not sorted(name for name, count in defined.items() if words[name] <= count)


# What dynamics.py writes out once, and the function that owns it: the
# selection rule's window of band k and a run's choice between its builds.
_OWNED = {
    r"max\(\s*k\s*-\s*1\s*,\s*0\s*\)": "_windows",
    r"min\(\s*k\s*\+\s*2\b": "_windows",
    r"min\(\s*k\s*\+\s*1\b": "_windows",
    r"transfer_blocks\s+if\b": "_run_build",
}


def test_window_and_build_have_one_owner():
    """dynamics.py spells the adjacent-band window (max(k - 1, 0),
    min(k + 2 or min(k + 1) only in _windows and the choice of a run's build
    (transfer_blocks if ...) only in _run_build, so that a change to either
    is made in one place. Both owners do spell theirs."""
    source = (Path(tlsbath.__file__).parent / "dynamics.py").read_text()
    owners = {node.name: range(node.lineno, node.end_lineno + 1)
              for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    found = [(i, pattern) for i, line in enumerate(source.splitlines(), 1)
             for pattern in _OWNED if re.search(pattern, line)]
    assert not [f"line {i}: {pattern}" for i, pattern in found
                if i not in owners.get(_OWNED[pattern], ())]
    assert {_OWNED[pattern] for _, pattern in found} == {"_windows", "_run_build"}


# Owners of a residue mod 2 or mod 4 in dynamics.py and model.py: the sector
# parity rule's owner, and sign_gauged, whose % 2 counts gauge flips.
_RESIDUE_OWNERS = {"_tls_level", "sign_gauged"}


def test_parity_rule_has_one_owner():
    """dynamics.py and model.py take a residue mod 2 or mod 4 (% 2, % 4,
    np.mod, np.remainder) only in model._tls_level, the one spelling of the
    conserved (TLS level + band) mod 2, and in sign_gauged, whose % 2 is
    another rule, so that a change to the sector parity rule is made in one
    place. Both owners do spell theirs."""
    found, spelled = [], set()
    for name in ("dynamics.py", "model.py"):
        source = (Path(tlsbath.__file__).parent / name).read_text()
        owners = {node.name: range(node.lineno, node.end_lineno + 1)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name in _RESIDUE_OWNERS}
        for i, line in enumerate(source.splitlines(), 1):
            if re.search(r"%\s*[24]\b|\b(mod|remainder)\(", line):
                owner = [o for o, lines in owners.items() if i in lines]
                spelled.update(owner)
                if not owner:
                    found.append(f"{name} line {i}: {line.strip()}")
    assert not found
    assert spelled == _RESIDUE_OWNERS
