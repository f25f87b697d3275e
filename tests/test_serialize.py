import hashlib
import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc import serialize
from fibcalc.errors import FibcalcError, MalformedInputError, RankMismatchError, SchemaError
from fibcalc.fibered import (Ambient, FiberedKnot, catalog_knot, connected_sum, mirror_knot,
                             stallings_twist)
from fibcalc.mcg import CurveSpec, SurfaceMonodromy, catalog_names, curated_payload
from fibcalc.ribbon_disk import boundary_knot, disk_twist, half_spin
from fibcalc.two_knot import double_disk, execute_plan, gluck, spin, torus_surgery_plan
from fibcalc.words import FreeGroupMap, abelianize


def roundtrip(obj):
    text = serialize.dumps(obj)
    back = serialize.loads(text)
    assert back == obj
    assert serialize.dumps(back) == text
    return back


def test_full_catalog_roundtrip():
    for name in catalog_names():
        roundtrip(curated_payload(name))
        entry = curated_payload(name)
        from fibcalc.mcg import SurfaceMonodromy
        if isinstance(entry, SurfaceMonodromy):
            roundtrip(catalog_knot(name))


def test_derived_object_roundtrips():
    k = catalog_knot("trefoil_R")
    d = half_spin(k)
    roundtrip(d)
    c1 = curated_payload("square_knot_stallings_c1")
    roundtrip(disk_twist(d, c1, 2))
    roundtrip(spin(k))
    roundtrip(torus_surgery_plan(k, catalog_knot("figure8")))
    from fibcalc.fibered import knot_group
    roundtrip(knot_group(k))
    from fibcalc.two_knot import FillingDescriptor
    roundtrip(FillingDescriptor("Y", (-1, 3)))


GENUS1 = ("trefoil_R", "trefoil_L", "figure8")
STALLINGS = tuple(curated_payload(f"square_knot_stallings_c{i}{s}")
                  for i in (1, 2) for s in ("", "_neg"))


@st.composite
def constructed_knots(draw):
    """A knot reached from the catalog by twist words, sums, mirrors and
    Stallings twists."""
    if draw(st.booleans()):
        knot = catalog_knot(draw(st.sampled_from(GENUS1 + ("unknot", "square_knot"))))
    else:
        word = draw(st.lists(st.tuples(st.sampled_from(("g1_a1", "g1_b1")),
                                       st.integers(-2, 2)), max_size=4))
        monodromy = SurfaceMonodromy.from_twist_word(
            1, [(curated_payload(name), m) for name, m in word])
        knot = FiberedKnot(Ambient.s3(), 1, monodromy, draw(st.sampled_from((None, "k"))))
    for step in draw(st.lists(st.sampled_from(("sum", "mirror", "stallings")), max_size=2)):
        if step == "sum" and knot.genus < 2:
            knot = connected_sum(knot, catalog_knot(draw(st.sampled_from(GENUS1))))
        elif step == "mirror":
            knot = mirror_knot(knot)
        elif step == "stallings" and knot.genus == 2:
            knot = stallings_twist(knot, draw(st.sampled_from(STALLINGS)),
                                   draw(st.integers(-3, 3)))
    return knot


@st.composite
def constructed_objects(draw):
    """An object reached from the catalog by public constructions: knots,
    their half-spins, disk twists, doubles, spins, Gluck twists and plans."""
    knot = draw(constructed_knots())
    kind = draw(st.sampled_from(("knot", "disk", "double", "spin", "plan")))
    if kind == "knot":
        return knot
    if kind == "spin":
        two_knot = spin(knot)
        return gluck(two_knot) if draw(st.booleans()) else two_knot
    if kind == "plan":
        source = catalog_knot(draw(st.sampled_from(GENUS1)))
        plan = torus_surgery_plan(source, knot if knot.genus >= 1 else source)
        return execute_plan(spin(source), plan) if draw(st.booleans()) else plan
    disk = half_spin(knot)
    if disk.monodromy.genus == 2:
        for _ in range(draw(st.integers(0, 3))):
            disk = disk_twist(disk, draw(st.sampled_from(STALLINGS)), draw(st.integers(-3, 3)))
    if kind == "double":
        return double_disk(disk, draw(st.integers(-2, 2)))
    return draw(st.sampled_from((disk, disk.monodromy, disk.monodromy.boundary,
                                 boundary_knot(disk))))


@given(constructed_objects())
@settings(max_examples=100, deadline=None)
def test_constructed_objects_roundtrip(obj):
    """The loader's checked constructors re-prove every fact that the
    constructions established without a check."""
    roundtrip(obj)


def test_labels_survive_roundtrip():
    k = catalog_knot("trefoil_R")
    assert serialize.loads(serialize.dumps(k)).label == "trefoil_R"


def test_unknown_schema_version():
    k = catalog_knot("unknot")
    data = serialize.serialize(k)
    data["schema_version"] = 99
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(data)
    assert "schema_version" in str(err.value)


def test_ragged_matrix_path():
    data = {"schema_version": 1,
            "object": {"kind": "int_matrix", "rows": 2, "cols": 2,
                       "entries": [[1, 0], [1]]}}
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(data)
    assert "entries[1]" in str(err.value)


def test_matrix_columns_past_maxsize_path():
    """A zero-row matrix of 10**19 columns is refused where it is loaded, not
    left for its transpose or product to fail."""
    data = {"schema_version": 1,
            "object": {"kind": "int_matrix", "rows": 0, "cols": 10**19, "entries": []}}
    with pytest.raises(SchemaError, match=r"matrix columns 10{19} is too large at \$\.object"):
        serialize.loads(json.dumps(data))


def test_unknown_kind_and_missing_key():
    with pytest.raises(SchemaError):
        serialize.deserialize({"schema_version": 1, "object": {"kind": "mystery"}})
    with pytest.raises(SchemaError) as err:
        serialize.deserialize({"schema_version": 1, "object": {"kind": "int_matrix"}})
    assert "rows" in str(err.value)


def test_canonical_bytes_are_stable():
    k = catalog_knot("square_knot")
    assert serialize.dumps(k) == serialize.dumps(catalog_knot("square_knot"))
    parsed = json.loads(serialize.dumps(k))
    assert parsed["schema_version"] == 1
    assert parsed["object"]["kind"] == "fibered_knot"


_DROP = object()


def _trefoil():
    return catalog_knot("trefoil_R")


def _filling():
    from fibcalc.two_knot import FillingDescriptor
    return FillingDescriptor("Y", (-1, 3))


def _laurent():
    from fibcalc.laurent import LaurentPoly
    return LaurentPoly(((0, 1), (1, -1), (2, 1)))


def _knot_group():
    from fibcalc.fibered import knot_group
    return knot_group(_trefoil())


def _plan():
    return torus_surgery_plan(_trefoil(), catalog_knot("figure8"))


# Each case changes one field of a valid serialized object; the load must
# fail with a SchemaError whose path is that field's.
PROBES = [
    (_laurent, ("terms", 0), [0], "$.object.terms[0]"),
    (_plan, ("entries", 0, "phase"), _DROP, "$.object.entries[0].phase"),
    (_filling, ("slope",), [1], "$.object.slope"),
    (_filling, ("slope",), [-1.9, 3], "$.object.slope[0]"),
    (_knot_group, ("generators",), [1, 2, 3], "$.object.generators[0]"),
    (_knot_group, ("generators", 1), "", "$.object.generators"),
    (lambda: curated_payload("trefoil_R"), ("provenance", 0), [1], "$.object.provenance[0]"),
    (_trefoil, ("monodromy", "action", "entries", 0, 1), "x",
     "$.object.monodromy.action.entries[0][1]"),
    (_trefoil, ("monodromy", "action", "entries", 0, 1), 1.0,
     "$.object.monodromy.action.entries[0][1]"),
    (lambda: spin(_trefoil()), ("gluck_parity",), True, "$.object.gluck_parity"),
    (lambda: curated_payload("g1_a1"), ("bounds_disk_in_handlebody",), "false",
     "$.object.bounds_disk_in_handlebody"),
    (lambda: curated_payload("g1_a1"), ("homology_class",), ["1", "0"],
     "$.object.homology_class[0]"),
    (_trefoil, ("label",), 7, "$.object.label"),
    (lambda: spin(_trefoil()), ("provenance",), [1, 2], "$.object.provenance[0]"),
    (lambda: half_spin(_trefoil()), ("ambient", "descriptor"), 5,
     "$.object.ambient.descriptor"),
    (lambda: spin(_trefoil()), ("monodromy_pi1", "images"), "x1",
     "$.object.monodromy_pi1.images"),
    (lambda: spin(_trefoil()), ("monodromy_pi1", "images"), [1],
     "$.object.monodromy_pi1.images[0]"),
    (_plan, ("entries", 0, "twist_sign"), 7, "$.object.entries[0]"),
    (_plan, ("entries", 1, "phase"), -3, "$.object.entries[1]"),
    (lambda: torus_surgery_plan(_trefoil(), catalog_knot("square_knot")),
     ("entries", 0, "twist_sign"), 1, "$.object.entries[0]"),
]


def _mutated(obj, keys, value):
    data = serialize.serialize(obj)
    node = data["object"]
    for key in keys[:-1]:
        node = node[key]
    if value is _DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return data


@pytest.mark.parametrize("make, keys, value, path", PROBES,
                         ids=[f"{p[3]}:={'drop' if p[2] is _DROP else repr(p[2])}"
                              for p in PROBES])
def test_malformed_field_is_schema_error_at_its_path(make, keys, value, path):
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(_mutated(make(), keys, value))
    assert err.value.path == path


def test_constructor_error_keeps_cause_and_object_path():
    data = _mutated(_trefoil(), ("monodromy", "action", "entries", 0, 1), 5)
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(data)
    assert err.value.path == "$.object.monodromy"
    assert "symplectic" in str(err.value)
    assert isinstance(err.value.__cause__, FibcalcError)


def test_optional_keys_keep_their_defaults():
    curve = curated_payload("g1_a1")
    data = serialize.serialize(curve)
    for key in ("pi1_payload", "bounds_disk_in_handlebody", "unknotted_in_ambient",
                "fiber_framing_zero", "name"):
        del data["object"][key]
    back = serialize.deserialize(data)
    assert back.pi1_payload is None and back.name is None
    assert not (back.bounds_disk_in_handlebody or back.unknotted_in_ambient
                or back.fiber_framing_zero)


@pytest.mark.parametrize("text", ["{not json", "[" * 100000 + "]" * 100000,
                                  '{"schema_version": 1' + "0" * 5000 + "}"])
def test_loads_rejects_bad_json_text(text):
    with pytest.raises(SchemaError):
        serialize.loads(text)


def test_schema_version_is_an_exact_integer():
    with pytest.raises(SchemaError) as err:
        serialize.loads('{"schema_version": true, "object": {}}')
    assert err.value.path == "$.schema_version"


def _sample_objects():
    from fibcalc.fibered import Ambient
    from fibcalc.matrices import IntMatrix
    from fibcalc.ribbon_disk import FiberType
    k = _trefoil()
    d = half_spin(k)
    return [_laurent(), IntMatrix.from_rows([[1, 2], [0, -1]]),
            Ambient("homology_sphere", "Y"), curated_payload("square_knot_stallings_c1"),
            curated_payload("trefoil_R"), d.monodromy, k, FiberType(1, "T"),
            disk_twist(d, curated_payload("square_knot_stallings_c1"), 1), spin(k),
            _knot_group(), _filling(), _plan()]


SAMPLES = [serialize.serialize(obj) for obj in _sample_objects()]


def _nodes(node, keys=()):
    yield keys, node
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, keys + (key,))


def _mutations(node, in_dict):
    """(name, new value) pairs; _DROP deletes a dict entry."""
    out = [("drop", _DROP)] if in_dict else []
    if type(node) is bool:
        out.append(("bool->int", int(node)))
    elif type(node) is int:
        out += [("int->bool", bool(node)), ("int->float", float(node)),
                ("int->digits", str(node))]
    elif type(node) is str:
        out.append(("str->int", 1))
    elif type(node) is list:
        out.append(("lengthen", node + node[-1:] if node else [0]))
        if node:
            out.append(("shorten", node[:-1]))
    return out


def _covers(dumped, mutated):
    """Every value of `mutated` is in `dumped`, with the same JSON type;
    `dumped` may add the keys a mutation dropped."""
    if isinstance(mutated, dict):
        return isinstance(dumped, dict) and all(
            k in dumped and _covers(dumped[k], v) for k, v in mutated.items())
    if isinstance(mutated, list):
        return isinstance(dumped, list) and len(dumped) == len(mutated) and all(
            _covers(a, b) for a, b in zip(dumped, mutated))
    return type(dumped) is type(mutated) and dumped == mutated


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_objects_load_exactly_or_fail_cleanly(data):
    original = data.draw(st.sampled_from(SAMPLES))
    mutated = json.loads(json.dumps(original))
    sites = []
    for keys, node in _nodes(mutated):
        if keys:
            parent = mutated
            for key in keys[:-1]:
                parent = parent[key]
            sites += [(keys, parent, m) for m in _mutations(node, isinstance(parent, dict))]
    keys, parent, (name, value) = data.draw(st.sampled_from(sites))
    if value is _DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    try:
        obj = serialize.loads(json.dumps(mutated))
    except FibcalcError:
        return
    text = serialize.dumps(obj)
    assert _covers(json.loads(text), mutated), (keys, name)
    assert serialize.dumps(serialize.loads(text)) == text


def _square_twist():
    return stallings_twist(catalog_knot("square_knot"),
                           curated_payload("square_knot_stallings_c1"), 2)


def _trefoil_disk_twist():
    return disk_twist(half_spin(_trefoil()), curated_payload("square_knot_stallings_c2_neg"), 3)


_PAYLOAD = ("monodromy", "provenance", 0, 0, "pi1_payload")
_PAYLOAD_PATH = "$.object.monodromy.provenance[0][0].pi1_payload"
_HANDLEBODY = ("monodromy", "pi1_action")
_HANDLEBODY_PATH = "$.object.monodromy.pi1_action"
# In `_square_twist`'s provenance: g1_a1 at genus 2, its copy g1_a1+1, and
# square_knot_stallings_c1, whose flags are true.
_A1, _A1_COPY, _C1 = (("monodromy", "provenance", i, 0) for i in (0, 3, 4))
_A1_PATH, _A1_COPY_PATH, _C1_PATH = (f"$.object.monodromy.provenance[{i}][0]" for i in (0, 3, 4))

# Word-level faults inside nested maps, and catalog-named curves that differ
# from their catalog curve only in a JSON type, a key or the name:
# (object, keys, new value, message, path, type of the SchemaError's
# cause).  A message of None marks a document that loads, and its path is
# the changed field.
WORD_PROBES = [
    (_square_twist, _PAYLOAD + ("images", 2), "a2 zz", "unknown generator token 'zz'",
     _PAYLOAD_PATH + ".images[2]", MalformedInputError),
    (_square_twist, _PAYLOAD + ("inverse_images", 1), "b1 qq", "unknown generator token 'qq'",
     _PAYLOAD_PATH + ".inverse_images[1]", MalformedInputError),
    (_square_twist, _PAYLOAD + ("images", 2), 5, "expected a string",
     _PAYLOAD_PATH + ".images[2]", type(None)),
    (_square_twist, _PAYLOAD + ("inverse_images", 1), None, "expected a string",
     _PAYLOAD_PATH + ".inverse_images[1]", type(None)),
    (_square_twist, _PAYLOAD + ("images", 2), ["a2"], "expected a string",
     _PAYLOAD_PATH + ".images[2]", type(None)),
    (_square_twist, _PAYLOAD + ("images",), None, "expected a list",
     _PAYLOAD_PATH + ".images", type(None)),
    (_square_twist, _PAYLOAD + ("images",), "a1", "expected a list",
     _PAYLOAD_PATH + ".images", type(None)),
    (_square_twist, _PAYLOAD + ("images", 2), "", "inverse witness does not invert the map",
     _PAYLOAD_PATH, MalformedInputError),
    (_square_twist, _PAYLOAD + ("inverse_images", 1), "",
     "inverse witness does not invert the map", _PAYLOAD_PATH, MalformedInputError),
    (_square_twist, _PAYLOAD + ("images",), ["a1", "b1 A1", "a2"],
     "images: one word per generator is required", _PAYLOAD_PATH, RankMismatchError),
    (_square_twist, _PAYLOAD + ("inverse_images",), ["a1", "b1 a1", "a2", "b2", "a1"],
     "inverse witness: one word per generator is required", _PAYLOAD_PATH, RankMismatchError),
    (_square_twist, _PAYLOAD + ("names",), ["a1", "b1", "a2"],
     "unknown generator token 'b2'", _PAYLOAD_PATH + ".images[3]", MalformedInputError),
    (_square_twist, _PAYLOAD + ("names",), ["a1", "b1", "a2", "a2"],
     "generator names ['a1', 'b1', 'a2', 'a2'] collide", _PAYLOAD_PATH + ".names",
     MalformedInputError),
    (_trefoil_disk_twist, _HANDLEBODY + ("inverse_images", 0), "x1 y1",
     "unknown generator token 'y1'", _HANDLEBODY_PATH + ".inverse_images[0]",
     MalformedInputError),
    (_trefoil_disk_twist, _HANDLEBODY + ("inverse_images", 0), 1.5, "expected a string",
     _HANDLEBODY_PATH + ".inverse_images[0]", type(None)),
    (_trefoil_disk_twist, _HANDLEBODY + ("inverse_images", 0), "x1",
     "inverse witness does not invert the map", _HANDLEBODY_PATH, MalformedInputError),
    (_square_twist, _A1_COPY + ("homology_class", 2), True, "expected an integer",
     _A1_COPY_PATH + ".homology_class[2]", type(None)),
    (_square_twist, _A1_COPY + ("homology_class", 2), 1.0, "expected an integer",
     _A1_COPY_PATH + ".homology_class[2]", type(None)),
    (_square_twist, _A1_COPY + ("genus",), 2.0, "expected an integer",
     _A1_COPY_PATH + ".genus", type(None)),
    (_square_twist, _A1_COPY + ("bounds_disk_in_handlebody",), 0, "expected a boolean",
     _A1_COPY_PATH + ".bounds_disk_in_handlebody", type(None)),
    (_square_twist, _C1 + ("fiber_framing_zero",), 1, "expected a boolean",
     _C1_PATH + ".fiber_framing_zero", type(None)),
    (_square_twist, _A1_COPY + ("genus",), 10**6, "homology class must have length 2*genus",
     _A1_COPY_PATH, MalformedInputError),
    (_square_twist, _A1_COPY + ("colour",), "red", None, _A1_COPY_PATH + ".colour", None),
    (_square_twist, _A1 + ("name",), "g1_a1+0", None, _A1_PATH + ".name", None),
    (_square_twist, _A1_COPY + ("name",), "g1_a1+01", None, _A1_COPY_PATH + ".name", None),
]


@pytest.mark.parametrize("make, keys, value, message, path, cause", WORD_PROBES,
                         ids=[f"{p[4]}:={p[2]!r}" for p in WORD_PROBES])
def test_word_level_fault_is_pinned(make, keys, value, message, path, cause):
    data = _mutated(make(), keys, value)
    if message is None:  # it loads, and dumps back every key of the schema as it was
        assert _covers(data, serialize.serialize(serialize.deserialize(data)))
        return
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(data)
    assert type(err.value) is SchemaError
    assert str(err.value) == f"{message} at {path}"
    assert err.value.path == path
    assert type(err.value.__cause__) is cause


@pytest.mark.parametrize("make, keys, value", [
    (_square_twist, _PAYLOAD + ("images", 2), "a2 b1 B1"),
    (_square_twist, _PAYLOAD + ("images", 2), " a2   b2 B2\t"),
    (_square_twist, _PAYLOAD + ("inverse_images", 1), "b1 a1 A1 a1"),
    (_square_twist, ("monodromy", "pi1_action", "images", 1), "b1 A1 a1 B1 b1 A1"),
    (_trefoil_disk_twist, _HANDLEBODY + ("images", 0), "X2 x2 " * 3 + "x1 x2 X1 x1 X1"),
])
def test_unreduced_word_loads_reduced_and_dumps_canonically(make, keys, value):
    obj = make()
    back = serialize.deserialize(_mutated(obj, keys, value))
    assert back == obj
    assert serialize.dumps(back) == serialize.dumps(obj)


def test_null_witness_loads_as_a_map_without_one():
    data = _mutated(_square_twist(), _PAYLOAD + ("inverse_images",), None)
    back = serialize.deserialize(data)
    assert not back.monodromy.provenance[0][0].pi1_payload.has_witness
    assert json.loads(serialize.dumps(back)) == data


def test_payload_of_another_curve_fails_the_abelianization_check():
    data = serialize.serialize(_square_twist())
    provenance = data["object"]["monodromy"]["provenance"]
    provenance[0][0]["pi1_payload"] = provenance[1][0]["pi1_payload"]
    with pytest.raises(SchemaError) as err:
        serialize.deserialize(data)
    assert str(err.value) == ("pi1 payload must abelianize to the transvection of the class "
                              "at $.object.monodromy.provenance[0][0]")
    assert type(err.value.__cause__) is MalformedInputError


def _golden_families():
    """The objects whose canonical bytes are pinned below, by family: the
    twisted families of the `twists` workload at |m| = 1, 16 and 40, a
    figure-8 monodromy power and a genus-3 surgery plan result."""
    curves = [curated_payload(f"square_knot_stallings_c{i}{s}")
              for i in (1, 2) for s in ("", "_neg")]
    square, disk = catalog_knot("square_knot"), half_spin(_trefoil())
    power = catalog_knot("figure8").monodromy.pi1_action.power(7)
    target = connected_sum(connected_sum(catalog_knot("figure8"), catalog_knot("trefoil_L")),
                           _trefoil())
    return {
        "stallings": [stallings_twist(square, c, m) for c in curves for m in (1, -1, 16, 40)],
        "disk": [disk_twist(disk, c, m) for c in curves for m in (1, -1, 16, 40)],
        "power": [SurfaceMonodromy(1, abelianize(power), power)],
        "plan": [execute_plan(spin(_trefoil()), torus_surgery_plan(_trefoil(), target))],
    }


GOLDEN_SHA256 = {
    "stallings": "052d4d70753127a1a1b3362584771d54b59737f184ef9d05859cc0fa5275d345",
    "disk": "2e34be2751018ea123132dc0851c960af23ac533efd1808e8f43e50084bcd2ad",
    "power": "a3db01e64c6b00b9370128d667dddd349e85808fbfc9efde3e6c6d1b1db20f21",
    "plan": "6f7c59a60f63638ae15180d6f4258071cdd27ab33028e422beca53d1ff532bf9",
}


def test_canonical_bytes_are_golden():
    """The bytes `dumps` wrote when these digests were taken, and `loads`
    then `dumps` gives them back."""
    for family, objects in _golden_families().items():
        texts = [serialize.dumps(obj) for obj in objects]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == GOLDEN_SHA256[family]
        assert [serialize.dumps(serialize.loads(text)) for text in texts] == texts


@contextmanager
def _counted_checks():
    """Count the checks of free-group maps (the inverse witness) and of
    curves (the abelianization against the transvection) while it is open."""
    counts = Counter()
    saved = {cls: cls.__post_init__ for cls in (FreeGroupMap, CurveSpec)}

    def counting(cls):
        def check(self):
            counts[cls.__name__] += 1
            saved[cls](self)
        return check
    try:
        for cls in saved:
            cls.__post_init__ = counting(cls)
        yield counts
    finally:
        for cls, check in saved.items():
            cls.__post_init__ = check


@contextmanager
def _no_catalog_route():
    """Load every curve through its field codecs and checked constructor."""
    with patch.object(serialize, "_catalog_form", lambda name, genus: None):
        yield


def _both_routes(text):
    """`text` loaded with the catalog route and without it, which must agree."""
    back = serialize.loads(text)
    with _no_catalog_route():
        checked = serialize.loads(text)
    assert back == checked
    assert serialize.dumps(back) == serialize.dumps(checked) == text
    return back


def _extend_copies(curve, top=4):
    """Every copy `CurveSpec.extend` makes of `curve` up to genus `top`: each
    run of nonzero offsets, as nested sums write them, at each final genus.
    Each offset extends to the largest genus the later offsets leave room
    for, which is not the genus the catalog route builds through."""
    def runs(room):
        yield ()
        for k in range(1, room + 1):
            yield from ((k, *rest) for rest in runs(room - k))
    for genus in range(curve.genus, top + 1):
        for offsets in runs(genus - curve.genus):
            copy = curve
            for i, k in enumerate(offsets):
                copy = copy.extend(genus - sum(offsets[i + 1:]), k)
            yield copy.extend(genus, 0)


def test_catalog_route_matches_the_checked_route_on_every_extend_copy():
    names = [name for name in catalog_names() if isinstance(curated_payload(name), CurveSpec)]
    seen = set()
    for name in names:
        for curve in _extend_copies(curated_payload(name)):
            text = serialize.dumps(curve)
            seen.add(json.loads(text)["object"]["name"])
            with _counted_checks() as counts:
                back = _both_routes(text)
            assert back == curve and back.name == curve.name
            assert counts["CurveSpec"] == 1  # the checked route's, none on the catalog route
    assert {"g1_a1+1+1+1", "g1_b1+2+1", "g2_b2+2", "square_knot_stallings_c2+1+1"} <= seen


@given(constructed_objects())
@settings(max_examples=60, deadline=None)
def test_catalog_route_matches_the_checked_route_on_constructed_objects(obj):
    assert _both_routes(serialize.dumps(obj)) == obj


def _right_associated_sum():
    return connected_sum(_trefoil(), connected_sum(catalog_knot("figure8"),
                                                   catalog_knot("trefoil_L")))


@pytest.mark.parametrize("make, checked, catalog", [
    (lambda: stallings_twist(catalog_knot("square_knot"),
                             curated_payload("square_knot_stallings_c1"), 16), (6, 5), (1, 0)),
    (lambda: disk_twist(half_spin(_trefoil()), curated_payload("square_knot_stallings_c2_neg"),
                        40), (4, 2), (2, 0)),
    (_right_associated_sum, (7, 6), (1, 0)),
], ids=["stallings", "disk", "sum"])
def test_catalog_curve_load_work_gate(make, checked, catalog):
    """The checks a warm load runs, as (free-group maps, curves): `checked`
    with every curve through its constructor, `catalog` on the catalog
    route, which checks no catalog curve and no payload of one."""
    text = serialize.dumps(make())
    serialize.loads(text)
    for route, expected in ((_no_catalog_route, checked), (nullcontext, catalog)):
        with route(), _counted_checks() as counts:
            serialize.loads(text)
        assert (counts["FreeGroupMap"], counts["CurveSpec"]) == expected


def test_declared_genus_builds_no_catalog_curve_larger_than_the_document():
    """The class length is checked against the genus before the catalog
    route builds anything, so genus 10^6 with four class entries builds no
    genus-10^6 curve on its way to the constructor's error."""
    built = []
    with patch.object(serialize, "_catalog_form", lambda name, genus: built.append(genus)):
        with pytest.raises(SchemaError, match="homology class must have length 2"):
            serialize.deserialize(_mutated(_square_twist(), _A1_COPY + ("genus",), 10**6))
    assert built and set(built) == {2}
