"""Every name a module of the library imports is used in that module, so a
deletion does not leave a dead import behind.  `__init__` re-exports what it
imports and is not checked."""

import ast
from pathlib import Path

import pytest

_SOURCE = Path(__file__).resolve().parent.parent / "src" / "fibcalc"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in _SOURCE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse((_SOURCE / path).read_text()))
    assert not unused, f"{path} imports names it does not use: {', '.join(unused)}"
