"""The value classes are frozen and compared by value, as `errors.frozen`
makes them.  Each is checked against a `dataclasses` twin with the same
annotated fields: equality, hash, `repr` and the frozen errors must agree,
the constructor must take the fields positionally and by keyword, and
`replace` must copy through the constructor."""

import dataclasses
import inspect

import pytest

import fibcalc
from fibcalc import (Ambient, CompatibilityReport, CurveSpec, FiberedDisk, FiberedKnot,
                     FiberedTwoKnot, FiberType, FillingDescriptor, FiniteGroupTable,
                     FreeGroupMap, FreeWord, GroupPresentation, IntMatrix, LaurentPoly,
                     MalformedInputError, PlanEntry, Statement, SurgeryPlan, SurgeryScript,
                     build_report, catalog_knot, curated_payload, finite_group, half_spin,
                     halving_family, knot_group, spin)
from fibcalc.errors import FrozenInstanceError, replace

_KNOT = catalog_knot("trefoil_R")
_HALVING = halving_family(spin(_KNOT), [1])[0]
_PLAN_ENTRY = PlanEntry(1, "T1", None, 0)
_STATEMENT = Statement("report", ("K",), None, 3)

# One instance of each value class.
VALUES = (FreeWord(2, (1, -2)), FreeGroupMap.identity(2), IntMatrix.from_rows([[2, 1], [1, 1]]),
          LaurentPoly(((0, 1), (1, -1))), Ambient("homology_sphere", "S3_{1/2}(K)"),
          curated_payload("g1_a1"), curated_payload("trefoil_R"),
          CompatibilityReport(False, ("x",)), half_spin(_KNOT).monodromy, knot_group(_KNOT),
          finite_group("S3"), _KNOT, FiberType(1, "S1xS2"), half_spin(_KNOT), spin(_KNOT),
          FillingDescriptor("Y", (-1, 2)), _HALVING.contractibility_report, _HALVING,
          _PLAN_ENTRY, SurgeryPlan(1, 1, (_PLAN_ENTRY,)), _STATEMENT,
          SurgeryScript((_STATEMENT,)), build_report(_KNOT))
IDS = [type(v).__name__ for v in VALUES]

# The fields that == and hash ignore, and the fields the constructor does not take.
NOT_COMPARED = {FiberedKnot: ("label",), CurveSpec: ("name",), FiberedDisk: ("label",),
                FiberedTwoKnot: ("provenance", "label")}
NOT_INIT = {FiniteGroupTable: ("identity", "inverses")}
OWN_REPR = (FreeWord, FreeGroupMap, LaurentPoly, GroupPresentation)


def _fields(cls) -> tuple[str, ...]:
    return tuple(cls.__annotations__)


def _twin_class(cls):
    return dataclasses.make_dataclass(cls.__qualname__, [
        (name, object, dataclasses.field(compare=name not in NOT_COMPARED.get(cls, ())))
        for name in _fields(cls)], frozen=True)


def _copy(cls, value, **changes):
    """An instance of `cls` with the fields of `value` and `changes`, built
    without a constructor."""
    out = object.__new__(cls)
    for name in _fields(type(value)):
        object.__setattr__(out, name, changes.get(name, getattr(value, name)))
    return out


def test_every_value_class_is_swept_and_none_is_a_dataclass():
    classes = {obj for obj in vars(fibcalc).values()
               if isinstance(obj, type) and "__value_fields__" in vars(obj)}
    assert len(classes) == 23
    assert {type(v) for v in VALUES} == classes
    assert not any(dataclasses.is_dataclass(cls) for cls in classes)
    for cls in classes:
        assert cls.__value_fields__ == _fields(cls)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_hash_and_repr_match_a_dataclass_twin(value):
    cls = type(value)
    twin = _copy(_twin_class(cls), value)
    assert value == _copy(cls, value) and value is not _copy(cls, value)
    assert hash(value) == hash(twin) == hash(_copy(cls, value))
    if cls not in OWN_REPR:
        assert repr(value) == repr(twin)
    assert value.__eq__(twin) is NotImplemented and value != twin
    assert value.__eq__(object()) is NotImplemented
    for name in _fields(cls):
        other = object()
        changed, twin_changed = _copy(cls, value, **{name: other}), _copy(type(twin), twin,
                                                                           **{name: other})
        assert (changed == value) is (twin_changed == twin) is \
            (name in NOT_COMPARED.get(cls, ()))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_and_deletion_raise_as_for_a_dataclass(value):
    twin = _copy(_twin_class(type(value)), value)
    for name in (_fields(type(value))[0], "not_a_field"):
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(FrozenInstanceError) as ours:
                act(value)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                act(twin)
            assert str(ours.value) == str(theirs.value)
            assert isinstance(ours.value, AttributeError)


@pytest.mark.parametrize("value", [v for v in VALUES if type(v) is not FreeGroupMap],
                         ids=[i for i in IDS if i != "FreeGroupMap"])
def test_construction_by_position_keyword_and_replace(value):
    cls = type(value)
    params = [name for name in _fields(cls) if name not in NOT_INIT.get(cls, ())]
    assert list(inspect.signature(cls).parameters) == params
    args = [getattr(value, name) for name in params]
    assert cls(*args) == value
    assert cls(**dict(zip(params, args))) == value
    copy = replace(value)
    assert copy == value and copy is not value and type(copy) is cls
    for name in NOT_INIT.get(cls, ()):
        with pytest.raises(TypeError):
            cls(*args, **{name: getattr(value, name)})


def test_defaults_and_compare_false_fields():
    assert Statement("report", ()) == Statement("report", (), None, 0)
    assert CurveSpec(1, (1, 0)).pi1_payload is None and CurveSpec(1, (1, 0)).name is None
    relabeled = replace(_KNOT, label="other")
    assert relabeled.label == "other" and relabeled == _KNOT and hash(relabeled) == hash(_KNOT)
    two_knot = spin(_KNOT)
    renamed = replace(two_knot, provenance=("p",), label=None)
    assert renamed == two_knot and hash(renamed) == hash(two_knot)
    assert replace(two_knot, gluck_parity=1) != two_knot
    with pytest.raises(MalformedInputError):  # replace runs the constructor's checks
        replace(_KNOT, genus="1")


def test_free_group_map_keeps_its_own_constructor():
    f = curated_payload("g1_a1").pi1_payload
    assert list(inspect.signature(FreeGroupMap).parameters) == ["rank", "images",
                                                                 "inverse_images"]
    assert FreeGroupMap(f.rank, f.images, f.inverse_images) == f
    assert FreeGroupMap(rank=f.rank, images=f.images) != f  # the witness is compared


def test_init_false_fields_are_derived_and_cached_properties_work():
    s3 = finite_group("S3")
    table = FiniteGroupTable("S3", 6, s3.table, s3.names)
    assert (table.identity, table.inverses) == (0, (0, 1, 2, 4, 3, 5))
    assert table.is_abelian is False and "is_abelian" in vars(table)
    assert table == s3 and hash(table) == hash(s3)
    presentation = knot_group(_KNOT)
    assert presentation._memo is presentation._memo
    assert presentation == knot_group(_KNOT)


def test_post_init_is_looked_up_when_an_instance_is_built(monkeypatch):
    """The constructor calls the class's `__post_init__` of the moment, so a
    probe swapped onto the class sees every construction."""
    seen = []
    original = FiberType.__post_init__
    monkeypatch.setattr(FiberType, "__post_init__", lambda self: seen.append(original(self)))
    FiberType(2)
    FiberType(genus=3, summand_label="x")
    assert len(seen) == 2


# repr strings recorded with `dataclasses`; error messages embed them.
PINNED_REPRS = {
    "Ambient(kind='homology_sphere', descriptor='S3_{1/2}(K)')":
        Ambient("homology_sphere", "S3_{1/2}(K)"),
    "FiberType(genus=1, summand_label='S1xS2')": FiberType(1, "S1xS2"),
    "FillingDescriptor(base='Y', slope=(-1, 2))": FillingDescriptor("Y", (-1, 2)),
    "SurgeryPlan(source_genus=1, target_genus=1, entries=(PlanEntry(phase=1, torus_id='T1', "
    "curve=None, twist_sign=0),))": SurgeryPlan(1, 1, (_PLAN_ENTRY,)),
    "SurgeryScript(statements=(Statement(verb='report', args=('K',), target=None, line=3),))":
        SurgeryScript((_STATEMENT,)),
    "CompatibilityReport(ok=False, failures=('x',))": CompatibilityReport(False, ("x",)),
    "IntMatrix(rows=2, cols=2, entries=((2, 1), (1, 1)))": IntMatrix.from_rows([[2, 1], [1, 1]]),
    "CurveSpec(genus=1, homology_class=(1, 0), pi1_payload=FreeGroupMap(2, [[1], [2, -1]]), "
    "bounds_disk_in_handlebody=False, unknotted_in_ambient=False, fiber_framing_zero=False, "
    "name='g1_a1')": curated_payload("g1_a1"),
}


@pytest.mark.parametrize("expected", PINNED_REPRS)
def test_pinned_reprs(expected):
    assert repr(PINNED_REPRS[expected]) == expected
