"""The surgery-script language: a line-oriented pipeline of the library's
constructions, plus structured invariant reports.

Grammar (one statement per line, `#` starts a comment):

    [NAME =] verb arg1 arg2 ...

The verbs, their arguments and what they do are in `_SIGNATURES`.
"""

from __future__ import annotations

import json
import re
from typing import Any

from . import serialize
from .errors import (FibcalcError, ScriptError, _check_int, _check_optional_str,
                     _check_sequence, _check_type, _int_text, _repr_text, _unchecked,
                     frozen)
from .fibered import FiberedKnot, catalog_knot, connected_sum, stallings_twist
from .invariants import _mapping_torus_invariants, finite_group
from .laurent import LaurentPoly, normalize_alexander
from .matrices import char_poly
from .mcg import CurveSpec, SurfaceMonodromy, curated_payload
from .ribbon_disk import FiberedDisk, disk_twist, half_spin, is_homotopy_ribbon
from .two_knot import (FiberedTwoKnot, SurgeryPlan, double_disk, gluck, spin,
                       torus_surgery_plan, torus_twist)
from .words import FreeGroupMap, abelianize

REPORT_GROUPS = ("Z2", "Z3", "Z5", "S3", "D4")


@frozen
class Statement:
    verb: str
    args: tuple[str, ...]
    target: str | None = None
    line: int = 0

    def __post_init__(self):
        _check_type(self.verb, str, "verb")
        _check_sequence(self.args, "arguments")
        for arg in self.args:
            _check_type(arg, str, "argument")
        object.__setattr__(self, "args", tuple(self.args))
        _check_optional_str(self.target, "target")
        _check_int(self.line, "line")

    def text(self) -> str:
        head = f"{self.target} = " if self.target else ""
        return head + " ".join((self.verb,) + self.args)


@frozen
class SurgeryScript:
    statements: tuple[Statement, ...]

    def __post_init__(self):
        _check_sequence(self.statements, "statements")
        for stmt in self.statements:
            _check_type(stmt, Statement, "statement")
        object.__setattr__(self, "statements", tuple(self.statements))

    def text(self) -> str:
        return "\n".join(s.text() for s in self.statements) + ("\n" if self.statements else "")


_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_script(source: str) -> SurgeryScript:
    """The statements of `source`, each checked against the verb signatures.
    Tokens are strings, targets identifiers and line numbers ints by
    construction, so the statements are built without the constructors'
    checks, which `execute` still relies on for hand-built ones."""
    _check_type(source, str, "script source")
    statements = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        target = None
        if len(tokens) >= 2 and tokens[1][0] == "=":
            name, col = tokens[0]
            if not name.isidentifier():
                raise ScriptError(f"bad binding name {name!r}", lineno, col)
            target = name
            tokens = tokens[2:]
            if not tokens:
                raise ScriptError("binding without a verb", lineno, col)
        verb, args = tokens[0][0], tuple(t for t, _ in tokens[1:])
        problem = _signature_problem(verb, args)
        if problem is not None:
            raise ScriptError(problem[1], lineno, tokens[problem[0]][1])
        statements.append(_unchecked(Statement, verb, args, target, lineno))
    return _unchecked(SurgeryScript, tuple(statements))


@frozen
class InvariantReport:
    kind: str
    label: str | None
    genus_or_rank: int | None = None
    alexander: tuple[int, ...] | None = None
    h1_diagonal: tuple[int, ...] | None = None
    hom_counts: tuple[tuple[str, int], ...] | None = None
    ambient: str | None = None
    is_homotopy_ribbon: bool | None = None
    gluck_parity: int | None = None
    provenance: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    plan: tuple[dict, ...] | None = None

    def to_jsonable(self) -> dict:
        """Every field, with tuples as lists and the hom counts as a dict."""
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        for name, value in out.items():
            if type(value) is tuple:
                out[name] = list(value)
        if self.hom_counts is not None:
            out["hom_counts"] = dict(self.hom_counts)
        return out

    def text(self) -> str:
        lines = [f"[{self.kind}] {self.label or '(unnamed)'}"]
        for name, title, values in _TEXT_LINES:
            value = getattr(self, name)
            if value is not None:
                lines += (f"  {title}: {v}" for v in values(value))
        return "\n".join(lines)


_REPORT_FIELDS = InvariantReport.__value_fields__

# The text form of a report after its heading, as (field, title, values) in
# print order: a field that is None prints nothing, else one line "  title: v"
# for each v in values(field).  Plan entries follow their count, indented.
_TEXT_LINES = (
    ("genus_or_rank", "genus/rank", lambda v: (v,)),
    ("ambient", "ambient", lambda v: (v,)),
    ("alexander", "alexander (t^0..)", lambda v: (list(v),)),
    ("h1_diagonal", "h1 diagonal", lambda v: (list(v),)),
    ("hom_counts", "hom counts", lambda v: (", ".join(f"{g}:{n}" for g, n in v),)),
    ("is_homotopy_ribbon", "homotopy-ribbon", lambda v: (v,)),
    ("gluck_parity", "gluck parity", lambda v: (v,)),
    ("provenance", "provenance", lambda v: ("; ".join(v),) if v else ()),
    ("notes", "note", tuple),
    ("plan", "plan entries", lambda v: ("".join([str(len(v)), *(
        f"\n    phase {e['phase']} {e['torus_id']}: "
        f"{e['curve'].get('name') if e['curve'] else '0-framed unlink torus'} "
        f"sign {e['twist_sign']}" for e in v)]),)),
)


def _class_text(curve: CurveSpec) -> str:
    return _repr_text(list(curve.homology_class), "homology class entry")


def _twist_word_note(word) -> tuple[str, ...]:
    return tuple(f"{c.name or _class_text(c)}^{_int_text(m, 'twist count')}"
                 for c, m in word)


def _alexander(chi: LaurentPoly) -> tuple[int, ...]:
    """The normalized Alexander coefficients of χ(t) = det(tI - A)."""
    return tuple(normalize_alexander(chi).dense_coeffs())


def _fiber_row(rows: dict, f: FreeGroupMap) -> tuple:
    """(Alexander coefficients, H1 diagonal, REPORT_GROUPS hom counts) of the
    mapping torus of the fiber map `f`, from `rows` or computed and stored
    there.  All three are invariants of the HNN extension by f and of its
    abelianization A, which f alone determines: a knot, its spin, the
    spin's Gluck twist, its half-spin disk, that disk's disk twists and
    their doubles all have the one row of their shared f.

    χ(t) = det(tI - A) is computed once: the Alexander coefficients are
    read off it, and it goes with f and A to `_mapping_torus_invariants`,
    which chooses the route of each count (see there)."""
    row = rows.get(f)
    if row is None:
        action = abelianize(f)
        chi = char_poly(action)
        factors, counts = _mapping_torus_invariants(
            f, action, chi, tuple(map(finite_group, REPORT_GROUPS)))
        rows[f] = row = (_alexander(chi), factors, tuple(zip(REPORT_GROUPS, counts)))
    return row


def build_report(obj: Any) -> InvariantReport:
    """The invariant report of a knot, disk, 2-knot, curve or surgery plan,
    computed afresh on every call; `execute` computes the rows it shares
    with other reports of the same run once.  A row is one call to
    `invariants._mapping_torus_invariants` on the fiber map (see
    `_fiber_row`), which reads what it can off the homology action and its
    characteristic polynomial and counts the rest on the HNN presentation.
    Every route gives the same bytes."""
    return _report(obj, {})


def _report(obj: Any, rows: dict) -> InvariantReport:
    """`build_report`, with the fiber rows of knots, disks and 2-knots read
    from and added to `rows` (see `_fiber_row`)."""
    if isinstance(obj, FiberedKnot):
        f = obj.monodromy.pi1_action
        if f is None:
            alex, diag, counts = _alexander(char_poly(obj.monodromy.action)), None, None
        else:  # its abelianization is the action, as SurfaceMonodromy checks
            alex, diag, counts = _fiber_row(rows, f)
        notes = ()
        if abs(sum(alex)) != 1:
            notes = (f"warning: |alexander(1)| = {_int_text(abs(sum(alex)), '|alexander(1)|')}, "
                     "expected 1 for a fibered knot in a homology sphere",)
        return InvariantReport(
            kind="fibered_knot", label=obj.label, genus_or_rank=obj.genus,
            alexander=alex, h1_diagonal=diag, hom_counts=counts, ambient=str(obj.ambient),
            provenance=_twist_word_note(obj.monodromy.provenance), notes=notes)
    if isinstance(obj, FiberedDisk):
        f = obj.monodromy.pi1_action
        if obj.fiber.is_handlebody:
            alex, diag, counts = _fiber_row(rows, f)
            notes = ()
        else:
            alex, diag, counts = _alexander(char_poly(abelianize(f))), None, None
            notes = (f"fiber carries summand {obj.fiber.summand_label!r}",)
        return InvariantReport(
            kind="fibered_disk", label=obj.label, genus_or_rank=obj.monodromy.genus,
            alexander=alex, h1_diagonal=diag, hom_counts=counts,
            ambient=str(obj.ambient), is_homotopy_ribbon=is_homotopy_ribbon(obj),
            provenance=_twist_word_note(obj.twist_history), notes=notes)
    if isinstance(obj, FiberedTwoKnot):
        alex, diag, counts = _fiber_row(rows, obj.monodromy_pi1)
        return InvariantReport(
            kind="fibered_two_knot", label=obj.label, genus_or_rank=obj.fiber_rank,
            alexander=alex, h1_diagonal=diag, hom_counts=counts,
            ambient=str(obj.ambient), gluck_parity=obj.gluck_parity,
            provenance=obj.provenance)
    if isinstance(obj, CurveSpec):
        flags = (f"class {_class_text(obj)}",
                 f"bounds_disk_in_handlebody={obj.bounds_disk_in_handlebody}",
                 f"unknotted_in_ambient={obj.unknotted_in_ambient}",
                 f"fiber_framing_zero={obj.fiber_framing_zero}")
        return InvariantReport(kind="curve_spec", label=obj.name,
                               genus_or_rank=obj.genus, notes=flags)
    if isinstance(obj, SurgeryPlan):
        entries = tuple(serialize.to_jsonable(e) for e in obj.entries)
        return InvariantReport(
            kind="surgery_plan", label=None,
            notes=(f"genus {obj.source_genus} -> {obj.target_genus}",),
            plan=entries)
    raise ScriptError(f"cannot report on a {type(obj).__name__}")


def _load(name: str):
    """The catalog entry of that name: a knot for a monodromy, else the curve."""
    entry = curated_payload(name)
    return catalog_knot(name) if isinstance(entry, SurfaceMonodromy) else entry


# verb -> argument types: a bound object's type, `str` for a catalog name or
# `int` for an integer literal.
_SIGNATURES = {
    "load": (str,),  # bind a catalog knot or curve
    "spin": (FiberedKnot,),  # spin a fibered knot
    "halfspin": (FiberedKnot,),  # the ribbon disk for K # -K
    "double": (FiberedDisk, int),  # double with 2-handle framing k
    "disktwist": (FiberedDisk, CurveSpec, int),  # along a disk boundary
    "stallingstwist": (FiberedKnot, CurveSpec, int),  # twist m times
    "glucktwist": (FiberedTwoKnot,),  # Gluck twist a 2-knot
    "torustwist": (FiberedTwoKnot, CurveSpec),  # on a spun 2-knot
    "connectsum": (FiberedKnot, FiberedKnot),  # K1 # K2
    "plan": (FiberedKnot, FiberedKnot),  # torus surgeries between the spins
    "report": (object,),  # emit the invariant report of an object
}


def _verb_table(report) -> dict:
    """verb -> the function it calls.  Built per call (once per `execute`),
    so that a module function replaced at run time is the one called; the
    argument types do not change and are the module's `_SIGNATURES`."""
    return {"load": _load, "spin": spin, "halfspin": half_spin, "double": double_disk,
            "disktwist": disk_twist, "stallingstwist": stallings_twist, "glucktwist": gluck,
            "torustwist": torus_twist, "connectsum": connected_sum,
            "plan": torus_surgery_plan, "report": report}


def _signature_problem(verb: str, args: tuple[str, ...]):
    """(index of the token at fault, 0 for the verb, and a message) if `verb
    args` does not fit `_SIGNATURES`; None if it does."""
    types = _SIGNATURES.get(verb)
    if types is None:
        return 0, f"unknown verb {verb!r}"
    if len(args) != len(types):
        return 0, f"verb {verb!r} takes {len(types)} argument(s), got {len(args)}"
    for pos, (text, typ) in enumerate(zip(args, types), start=1):
        if typ is int and not _INTEGER.fullmatch(text):
            return pos, f"argument {pos} of {verb!r} must be an integer"


def _argument(text: str, typ: type, env: dict):
    if typ in (int, str):
        try:
            return typ(text)
        except ValueError:  # an integer of more digits than int() converts
            raise ScriptError(f"integer literal of {len(text)} characters is too long") from None
    if text not in env:
        raise ScriptError(f"name {text!r} is not bound")
    if not isinstance(env[text], typ):
        raise ScriptError(f"{text!r} is a {type(env[text]).__name__}, not a {typ.__name__}")
    return env[text]


def execute(script: "SurgeryScript | str") -> list[InvariantReport]:
    """Run a script; reports are emitted in statement order.  The first
    failing statement aborts with a ScriptError carrying its index (reports
    produced so far are attached to the error as `.reports`).

    Each report equals `build_report` of its object, but the fiber rows
    (`_fiber_row`) are kept for the whole run, so each distinct fiber map
    gets one `_mapping_torus_invariants` call per run, however many of the
    objects built from it are reported.  Signatures are checked by
    `parse_script` for a text, here for a hand-built `SurgeryScript`."""
    parsed = isinstance(script, str)
    if parsed:
        script = parse_script(script)
    _check_type(script, SurgeryScript, "script")
    env: dict[str, Any] = {}
    reports: list[InvariantReport] = []
    rows: dict[FreeGroupMap, tuple] = {}

    def report(obj):
        reports.append(_report(obj, rows))
        return obj

    table = _verb_table(report)
    for index, stmt in enumerate(script.statements):
        try:
            problem = None if parsed else _signature_problem(stmt.verb, stmt.args)
            if problem is not None:
                raise ScriptError(problem[1])
            function, types = table[stmt.verb], _SIGNATURES[stmt.verb]
            args = [_argument(text, typ, env) for text, typ in zip(stmt.args, types)]
            result = function(*args)
            if stmt.target is not None:
                env[stmt.target] = result
        except FibcalcError as exc:
            err = ScriptError(f"{stmt.verb}: {exc}", statement=index)
            err.reports = reports
            raise err from exc
    return reports


def reports_to_json(reports: list[InvariantReport]) -> str:
    return json.dumps([r.to_jsonable() for r in reports], sort_keys=True,
                      separators=(",", ":"))
