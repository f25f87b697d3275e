"""Versioned JSON serialization for all object kinds.

Serialized files look like {"schema_version": 1, "object": {...}} where every
object dict carries a "kind" discriminator.  Free-group data uses the word
text syntax (whitespace-separated tokens, uppercase first letter = inverse)
together with the generator names in use, so round trips are exact.

One table, `_KINDS`, drives both directions (maps are written by `_map`,
which knows their names).  Loading takes JSON types exactly (a bool is not an
integer, nor is a float or a digit string), and every failure is a SchemaError
naming the JSON path of the offending value.  Loading is the trust boundary,
so no check is dropped: a map's words are read in one loop with one token
table, then its constructor checks ranks, lengths and the inverse witness,
and `CurveSpec` and `SurfaceMonodromy` the abelianization and symplectic
facts.

Curves take one of two routes.  A curve object whose name is that of a
catalog curve, or of a copy `CurveSpec.extend` makes of one, and which is
that curve's canonical JSON exactly, type for type, loads as the checked
catalog value (the catalog route).  That is a complete check, not a skipped
one: what the field codecs, the witness check and the abelianization check
decide is a function of the JSON alone, and the catalog value passed them
all when it was built, so the checked route would build an equal curve with
the same bytes.  Every curve the CLI makes is such a curve, as are the twist
words of sums, mirrors and twists of catalog knots.  Any other curve, and
any difference in a type, a key or the name, takes the checked route.  The
canonical forms are built on first use and kept, never handed out, in a
bounded cache; nothing else is kept between calls, so any other document
loaded twice is checked twice.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, NamedTuple

from .errors import FibcalcError, SchemaError, _digit_count
from .fibered import Ambient, FiberedKnot
from .laurent import LaurentPoly
from .matrices import IntMatrix
from .mcg import CurveSpec, HandlebodyMonodromy, SurfaceMonodromy, _catalog_curve
from .presentation import GroupPresentation
from .ribbon_disk import FiberedDisk, FiberType
from .two_knot import FiberedTwoKnot, FillingDescriptor, PlanEntry, SurgeryPlan
from .words import (FreeGroupMap, _checked_map, _text, _word, check_generator_names,
                    handlebody_names, surface_names)

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a field whose key must be present


class _Invalid(Exception):
    """A load failure.  Its JSON path is prefixed segment by segment while
    the error unwinds, so input that loads builds no path at all."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.where = where


def _checked(function, *args, **kwargs):
    """The call, with a library error turned into a load failure."""
    try:
        return function(*args, **kwargs)
    except FibcalcError as exc:
        raise _Invalid(str(exc)) from exc


def _plain(value, _=None):
    """JSON for a value that needs no context: objects by the table, sequences as lists."""
    if type(value) in (tuple, list):
        return [_plain(x) for x in value]
    return to_jsonable(value) if type(value) in _KIND_OF else value


class _Codec(NamedTuple):
    load: Callable[[Any, dict], Any]  # (JSON, the fields loaded before it) -> value
    dump: Callable[[Any, Any], Any] = _plain  # (value, the object holding it) -> JSON


def _exact(typ: type, what: str) -> _Codec:
    def load(value, _):
        if type(value) is not typ:
            raise _Invalid(f"expected {what}")
        return value
    return _Codec(load)


_INT = _exact(int, "an integer")
_STR = _exact(str, "a string")
_BOOL = _exact(bool, "a boolean")


def _list(item: "_Codec | tuple", length: "int | str | None" = None) -> _Codec:
    """A list of items, or of one item per codec when `item` is a tuple.
    `length` is a count, or the key of an earlier integer field."""
    items = item if type(item) is tuple else repeat(item)

    def load(value, loaded):
        n = loaded[length] if type(length) is str else length
        if type(value) is not list or n is not None and len(value) != n:
            raise _Invalid("expected a list" + ("" if n is None else f" of {n}"))
        if item is _INT and all(type(x) is int for x in value):
            return tuple(value)
        out = []
        for i, (codec, x) in enumerate(zip(items, value)):
            try:
                out.append(codec.load(x, loaded))
            except _Invalid as bad:
                bad.where = f"[{i}]{bad.where}"
                raise
        return tuple(out)
    return _Codec(load)


def _object(kind: str | None) -> _Codec:
    """A nested object of one kind (None: a plan entry)."""
    return _Codec(lambda value, _: _load(kind, value))


def _load_names(value, loaded):
    names = _STRS.load(value, loaded)
    _checked(check_generator_names, names)
    return names


def _read_words(value, names) -> tuple[tuple[int, ...], ...]:
    """The letters of a list of word texts over valid generator names."""
    if type(value) is not list:
        raise _Invalid("expected a list")
    read, words = _text(names)[0], []
    for text in value:
        if type(text) is not str:
            raise _Invalid("expected a string", f"[{len(words)}]")
        try:
            words.append(read(text))
        except FibcalcError as exc:
            raise _Invalid(str(exc), f"[{len(words)}]") from exc
    return tuple(words)


# The words of a map, as letter tuples over the names loaded before them.
_MAP_WORDS = _Codec(lambda value, loaded: _read_words(value, loaded["names"]))


def _load_relators(value, loaded):
    rank = len(loaded["generators"])
    return tuple(_word(rank, w) for w in _read_words(value, loaded["generators"]))


# A presentation's relators, `FreeWord`s over its generator names.
_RELATORS = _Codec(_load_relators, lambda value, presentation: _text(
    presentation.generators)[1](w.letters for w in value))


def _map(names_of_rank: Callable[[int], tuple]) -> _Codec:
    """A free-group map, written with the generator names `names_of_rank`."""
    def dump(f, _):
        if f is None:
            return None
        names = names_of_rank(f.rank)
        write = _text(names)[1]
        return {"kind": "free_group_map", "names": list(names), "images": write(f._images),
                "inverse_images": None if f._witness is None else write(f._witness)}
    return _Codec(_object("free_group_map").load, dump)


def _free_group_map(names, images, inverse_images) -> FreeGroupMap:
    return _checked_map(len(names), images, inverse_images)


def _field(key: str, codec: _Codec, default: Any = _REQUIRED, attr: str | None = None):
    """(JSON key, attribute, codec, default).  A missing key takes the
    default; a key whose default is None may also be null."""
    return key, attr or key, codec, default


_STRS = _list(_STR)
_NAMES = _Codec(_load_names)
_SURFACE_MAP = _map(lru_cache(maxsize=16)(lambda rank: surface_names(rank // 2)))
_HANDLEBODY_MAP = _map(lru_cache(maxsize=16)(handlebody_names))
_TWIST_WORD = _list(_list((_object("curve_spec"), _INT), 2))
_AMBIENT = _field("ambient", _object("ambient"))
_GENUS = _field("genus", _INT)
_LABEL = _field("label", _STR, None)

# kind -> (class, fields).  Fields load in order, so a codec may read an
# earlier field of the same object.
_KINDS: dict[str | None, tuple[Callable, tuple]] = {
    "laurent_poly": (LaurentPoly, (_field("terms", _list(_list(_INT, 2))),)),
    "int_matrix": (IntMatrix, (_field("rows", _INT), _field("cols", _INT),
                               _field("entries", _list(_list(_INT, "cols"), "rows")))),
    "ambient": (Ambient, (_field("tag", _STR, attr="kind"), _field("descriptor", _STR, None))),
    "free_group_map": (_free_group_map, (
        _field("names", _NAMES), _field("images", _MAP_WORDS),
        _field("inverse_images", _MAP_WORDS, None))),
    "curve_spec": (CurveSpec, (
        _GENUS, _field("homology_class", _list(_INT)),
        _field("pi1_payload", _SURFACE_MAP, None),
        _field("bounds_disk_in_handlebody", _BOOL, False),
        _field("unknotted_in_ambient", _BOOL, False),
        _field("fiber_framing_zero", _BOOL, False), _field("name", _STR, None))),
    "surface_monodromy": (SurfaceMonodromy, (
        _GENUS, _field("action", _object("int_matrix")),
        _field("pi1_action", _SURFACE_MAP, None), _field("provenance", _TWIST_WORD))),
    "handlebody_monodromy": (HandlebodyMonodromy, (
        _GENUS, _field("pi1_action", _HANDLEBODY_MAP),
        _field("boundary", _object("surface_monodromy")))),
    "fibered_knot": (FiberedKnot, (
        _AMBIENT, _GENUS, _field("monodromy", _object("surface_monodromy")), _LABEL)),
    "fiber_type": (FiberType, (_GENUS, _field("summand_label", _STR, None))),
    "fibered_disk": (FiberedDisk, (
        _AMBIENT, _field("fiber", _object("fiber_type")),
        _field("monodromy", _object("handlebody_monodromy")),
        _field("twist_history", _TWIST_WORD), _LABEL)),
    "fibered_two_knot": (FiberedTwoKnot, (
        _AMBIENT, _field("fiber_rank", _INT), _field("monodromy_pi1", _HANDLEBODY_MAP),
        _field("gluck_parity", _INT), _field("provenance", _STRS), _LABEL)),
    "group_presentation": (GroupPresentation, (
        _field("generators", _NAMES), _field("relators", _RELATORS))),
    "filling_descriptor": (FillingDescriptor, (
        _field("base", _STR), _field("slope", _list(_INT, 2)))),
    "surgery_plan": (SurgeryPlan, (
        _field("source_genus", _INT), _field("target_genus", _INT),
        _field("entries", _list(_object(None))))),
    # Plan entries are the one record written without a "kind" key.
    None: (PlanEntry, (
        _field("phase", _INT), _field("torus_id", _STR),
        _field("curve", _object("curve_spec"), None), _field("twist_sign", _INT))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}


def _dump(kind: str | None, obj: Any) -> dict:
    out = {key: codec.dump(getattr(obj, attr), obj) for key, attr, codec, _ in _KINDS[kind][1]}
    if kind is not None:
        out["kind"] = kind
    return out


def _same(data: Any, canonical: Any) -> bool:
    """Whether the JSON data `data` is `canonical`, type for type (`==`
    takes true, 1 and 1.0 for one another, and a subclass for its base)."""
    if type(data) is not type(canonical):
        return False
    if type(canonical) is dict:
        return data.keys() == canonical.keys() and all(
            map(_same, map(data.__getitem__, canonical), canonical.values()))
    if type(canonical) is list:
        return len(data) == len(canonical) and all(map(_same, data, canonical))
    return data == canonical


@lru_cache(maxsize=64)
def _catalog_form(name: str, genus: int) -> tuple[CurveSpec, dict] | None:
    """The catalog curve, or its `extend` copy, named `name` at genus
    `genus`, with its canonical JSON, which is never handed out."""
    curve = _catalog_curve(name, genus)
    return None if curve is None else (curve, _dump("curve_spec", curve))


def _catalog_value(data: dict) -> CurveSpec | None:
    """The checked catalog value whose canonical JSON `data` is, if any.
    The class length is checked first, so a declared genus builds nothing
    larger than the document."""
    name, genus, vec = data.get("name"), data.get("genus"), data.get("homology_class")
    if type(name) is not str or type(genus) is not int or type(vec) is not list \
            or len(vec) != 2 * genus:
        return None
    form = _catalog_form(name, genus)
    return form[0] if form is not None and _same(data, form[1]) else None


def _load(kind: str | None, data: Any) -> Any:
    if type(data) is not dict:
        raise _Invalid("expected an object")
    if kind is not None and data.get("kind") != kind:
        raise _Invalid(f"expected kind {kind!r}", ".kind")
    if kind == "curve_spec" and (curve := _catalog_value(data)) is not None:
        return curve
    loaded: dict[str, Any] = {}
    for key, attr, codec, default in _KINDS[kind][1]:
        value = data.get(key, default)
        if value is _REQUIRED:
            raise _Invalid(f"missing key {key!r}", f".{key}")
        try:
            loaded[attr] = value if value is default else codec.load(value, loaded)
        except _Invalid as bad:
            bad.where = f".{key}{bad.where}"
            raise
    return _checked(_KINDS[kind][0], **loaded)


def to_jsonable(obj: Any) -> Any:
    if type(obj) not in _KIND_OF:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")
    return _dump(_KIND_OF[type(obj)], obj)


def from_jsonable(data: Any, path: str = "$") -> Any:
    kind = data.get("kind") if type(data) is dict else None
    try:
        if type(data) is dict and not (type(kind) is str and kind in _KINDS):
            raise _Invalid(f"unknown kind {kind!r}", ".kind")
        return _load(kind, data)
    except _Invalid as bad:
        raise SchemaError(str(bad), path + bad.where) from bad.__cause__


def serialize(obj: Any) -> dict:
    return {"schema_version": SCHEMA_VERSION, "object": to_jsonable(obj)}


def deserialize(data: dict) -> Any:
    if type(data) is not dict:
        raise SchemaError("expected a top-level object")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}", "$.schema_version")
    return from_jsonable(data.get("object"), "$.object")


def dumps(obj: Any) -> str:
    """Canonical byte-stable JSON text."""
    data = serialize(obj)
    try:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    except ValueError:  # an integer with more digits than Python writes as text
        for path, value in _ints(data, "$"):
            try:
                str(value)
            except ValueError:
                raise SchemaError(f"integer of {_digit_count(value)} digits is too long to write",
                                  path) from None
        raise


def _ints(data: Any, path: str):
    """(path, value) of every integer in the JSON data `data`."""
    if type(data) is int:
        yield path, data
    elif type(data) is dict:
        for key, value in data.items():
            yield from _ints(value, f"{path}.{key}")
    elif type(data) is list:
        for i, value in enumerate(data):
            yield from _ints(value, f"{path}[{i}]")


def loads(text: str) -> Any:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return deserialize(data)
