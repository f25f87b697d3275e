"""The benchmark tracer (`bench/tracing.py`) wraps the fibcalc names listed in
its PROBES table.  A refactor that renames one of them, or stops defining a
probed constructor's `__post_init__` in its class body, breaks the traced
benchmark run; these tests catch that first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _probes():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, name) for m, names in module.PROBES.items() for name in names]


@pytest.mark.parametrize("module_name, name", _probes())
def test_probed_name_resolves(module_name, name):
    module = importlib.import_module(f"fibcalc.{module_name}")
    owner_name, _, method = name.partition(".")
    assert hasattr(module, owner_name), f"fibcalc.{module_name} has no {owner_name}"
    owner = getattr(module, owner_name)
    if isinstance(owner, type):
        attr = method or "__post_init__"
        assert attr in owner.__dict__, f"{owner_name} does not define {attr} itself"
    else:
        assert not method and callable(owner)
