"""In-memory spans recorded around calls into fibcalc's modules.

A span is (name, start, end, parent, op id, tag, failed).  Names are
`<module>.<function>` (or `<module>.<Class>` for a constructor's validation,
`<module>.<Class>.<method>` for a method) for calls into a fibcalc module, and
`op.<kind>` for the root span of one benchmark operation.  A span's self time
is its duration minus the durations of its direct children, so time lands on
the innermost probed function.

`instrument` makes the spans: within it, the probed names in fibcalc's module
namespaces are replaced by wrappers that call the real function inside a
span, so the program's own code runs unchanged and its calls between modules
are what is timed.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "script", "serialize", "fibered", "ribbon_disk", "two_knot",
           "mcg", "words", "presentation", "invariants", "matrices", "laurent")

# The functions, constructors and methods whose calls become spans, by module.
# A class name stands for its constructor's validation (`__post_init__`).
# Left out: arithmetic on FreeWord, IntMatrix and LaurentPoly, called once per
# letter or entry, and the recursive serialize helpers, so that one traced
# round stays at tens of thousands of spans.
PROBES = {
    "cli": ("main",),
    "script": ("parse_script", "execute", "build_report", "reports_to_json"),
    "serialize": ("dumps", "loads", "serialize", "deserialize"),
    "fibered": ("FiberedKnot", "knot_group", "alexander_poly", "stallings_twist",
                "connected_sum", "catalog_knot"),
    "ribbon_disk": ("FiberedDisk", "doubled_boundary", "half_spin", "boundary_knot",
                    "disk_twist", "exterior_presentation", "is_homotopy_ribbon"),
    "two_knot": ("FiberedTwoKnot", "double_disk", "spin", "gluck", "two_knot_group",
                 "torus_twist", "torus_surgery_plan", "execute_plan"),
    "mcg": ("SurfaceMonodromy", "HandlebodyMonodromy", "twist_monodromy",
            "compose_monodromy", "boundary_connected_sum", "transvection",
            "curated_payload"),
    "words": ("FreeGroupMap", "FreeGroupMap.power", "FreeGroupMap.inverse",
              "FreeGroupMap.extend", "compose", "abelianize"),
    "presentation": ("GroupPresentation", "hnn_presentation"),
    "invariants": ("h1", "alexander_from_presentation", "fox_matrix", "count_homs",
                   "finite_group"),
    "matrices": ("char_poly", "laurent_det", "smith_normal_form", "smith_diagonal"),
    "laurent": ("normalize_alexander", "laurent_gcd"),
}

# Spans tagged by their arguments instead of by the operation's tag.
TAGS = {
    "invariants.count_homs": lambda presentation, group, *rest, **kw: group.label,
}


def _count_homs(tr, count, presentation, group, *rest, **kw):
    tr.count("invariants.count_homs.nominal", group.order ** presentation.n_generators)
    tr.count("invariants.count_homs.homs", count)


# Counters taken from a probed call's result and arguments.
AFTER = {
    "invariants.count_homs": _count_homs,
    "words.FreeGroupMap.power": lambda tr, power, *args, **kw:
        tr.count("words.letters_out", sum(len(w) for w in power.images)),
    "serialize.dumps": lambda tr, text, *args, **kw: tr.count("serialize.bytes", len(text)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = 0
        self._tag: str | None = None

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self._op,
                  self._tag if tag is None else tag, False]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            record[6] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind: str, tag: str | None = None):
        """Root span of one operation; spans inside it carry its tag."""
        self._op += 1
        self._tag = tag
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._tag = None

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _, _, _ in self.spans]
        for _, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def durations(self, name: str) -> dict[str, list[float]]:
        """Durations of the spans called `name`, grouped by tag."""
        out: dict[str, list[float]] = defaultdict(list)
        for span_name, start, end, _, _, tag, _ in self.spans:
            if span_name == name:
                out[tag].append(end - start)
        return out

    def module_totals(self) -> tuple[dict, float]:
        """Per-module busy seconds, calls and failures, plus the self time of
        the op root spans (time no module span covers)."""
        busy = {m: 0.0 for m in MODULES}
        calls = {m: 0 for m in MODULES}
        failed = {m: 0 for m in MODULES}
        unattributed = 0.0
        for span, own in zip(self.spans, self.self_times()):
            module = span[0].split(".", 1)[0]
            if module == "op":
                unattributed += own
            else:
                busy[module] += own
                calls[module] += 1
                failed[module] += span[6]
        return {"busy_s": busy, "calls": calls, "failed": failed}, unattributed

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, tag, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag,
                                     "failed": failed}) + "\n")


def _probe(tr, name, fn):
    tag, after = TAGS.get(name), AFTER.get(name)

    def probed(*args, **kwargs):
        with tr.span(name, tag(*args, **kwargs) if tag else None):
            result = fn(*args, **kwargs)
            if after:
                after(tr, result, *args, **kwargs)
            return result
    return probed


@contextmanager
def instrument(tr, *namespaces):
    """Within the block, calls to every name in PROBES are spans of `tr`.

    A function is replaced wherever fibcalc's modules (and `namespaces`, such
    as a module that imported it by name) hold it; a constructor's
    `__post_init__` and a method are replaced on their class.  Everything is
    restored on exit."""
    holders = [m for n, m in sys.modules.items() if n == "fibcalc" or n.startswith("fibcalc.")]
    holders += namespaces
    saved = []
    for module_name, names in PROBES.items():
        module = importlib.import_module(f"fibcalc.{module_name}")
        for name in names:
            span = f"{module_name}.{name}"
            owner_name, _, method = name.partition(".")
            value = getattr(module, owner_name)
            if isinstance(value, type):
                attr = method or "__post_init__"
                original = value.__dict__[attr]
                saved.append((value, attr, original))
                setattr(value, attr, _probe(tr, span, original))
                continue
            probed = _probe(tr, span, value)
            for holder in holders:
                for key, held in list(vars(holder).items()):
                    if held is value:
                        saved.append((holder, key, held))
                        setattr(holder, key, probed)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
