"""Every name a module of the library imports is used in that module, so a
deletion does not leave a dead import behind.  `__init__` re-exports what it
imports and is not checked.  Importing the library and its CLI leaves out
`dataclasses` and `inspect`, whose import costs more than the rest of a
cold start's imports."""

import ast
import subprocess
import sys
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


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fibcalc, fibcalc.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(_SOURCE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
