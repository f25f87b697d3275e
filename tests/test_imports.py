"""Every name a module of the library or of the tests imports is used in
that module, so a deletion does not leave a dead import behind.  `__init__`
re-exports what it imports and is not checked.  Importing the library and
its CLI leaves out `dataclasses` and `inspect`, whose import costs more than
the rest of a cold start's imports, and loads no module from outside the
standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parent
_SOURCE = _TESTS.parent / "src" / "fibcalc"
# Library modules by file name, test modules as tests/<file name>.
_MODULES = {p.name: p for p in _SOURCE.glob("*.py") if p.name != "__init__.py"}
_MODULES.update((f"tests/{p.name}", p) for p in _TESTS.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(_MODULES))
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(_MODULES[path].read_text()))
    assert not unused, f"{path} imports names it does not use: {', '.join(unused)}"


# Run in a fresh interpreter: forget the modules outside the standard library
# that the site hooks loaded, import the library and its CLI, and print the
# heavy modules loaded, then the top-level modules outside the standard library.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
ours = sys.stdlib_module_names | {"__main__", "fibcalc"}
for name in [n for n in sys.modules if n.partition(".")[0] not in ours]:
    del sys.modules[name]
import fibcalc, fibcalc.cli
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
print(" ".join(sorted({n.partition(".")[0] for n in sys.modules} - ours)))
"""


def test_import_leaves_out_dataclasses_and_inspect():
    """The library and its CLI load neither `dataclasses` nor `inspect`, and
    no module from outside the standard library, so that sympy, which the
    tests use, never becomes a dependency of the library."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(_SOURCE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    heavy, foreign = done.stdout.split("\n")[:2]
    assert (heavy.split(), foreign.split()) == ([], [])
