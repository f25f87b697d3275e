"""Library constructors take integers exactly: a float, a bool or a digit
string is an error, never coerced.  Malformed shapes are library errors too,
never a raw AttributeError, TypeError or ValueError."""

import inspect
import sys
from itertools import product

import pytest

import fibcalc
from fibcalc import serialize
from fibcalc.errors import FibcalcError, MalformedInputError, RankMismatchError, replace
from fibcalc.fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot,
                             connected_sum, distinctness_bound, dual_knot_surgery_descriptor,
                             knot_group, mirror_knot, stallings_twist)
from fibcalc.invariants import (FiniteGroupTable, alexander_from_presentation, count_homs,
                                finite_group, fox_matrix, h1,
                                infinite_cyclic_exponents)
from fibcalc.laurent import LaurentPoly, laurent_gcd, normalize_alexander
from fibcalc.matrices import IntMatrix, block_diag, char_poly, laurent_det, smith_normal_form
from fibcalc.mcg import (CurveSpec, SurfaceMonodromy, boundary_connected_sum, cg_compatibility,
                         compose_monodromy, curated_payload, intersection, is_symplectic,
                         mirror, symplectic_form, transvection, twist_monodromy)
from fibcalc.presentation import GroupPresentation, hnn_presentation
from fibcalc.ribbon_disk import (FiberedDisk, FiberType, boundary_knot,
                                 boundary_surjectivity_check, disk_twist,
                                 exterior_presentation, half_spin, is_homotopy_ribbon)
from fibcalc.script import Statement, SurgeryScript, build_report, execute, parse_script
from fibcalc.two_knot import (FiberedTwoKnot, FillingDescriptor, PlanEntry, SurgeryPlan,
                              double_disk, execute_plan, gluck, halving_family,
                              seifert_filling_multiplicity, spin, torus_surgery_plan,
                              torus_twist, two_knot_group)
from fibcalc.words import (FreeGroupMap, FreeWord, abelianize, apply_map, compose,
                           handlebody_names, surface_names, word_from_text, word_to_text)


def _trefoil_group():
    return knot_group(catalog_knot("trefoil_R"))


def _stallings_curve():
    return curated_payload("square_knot_stallings_c1")


PROBES = {
    "word letters": lambda: FreeWord(2, (1.0, True, "2")),
    "word float letter": lambda: FreeWord(2, (1.0,)),
    "word bool letter": lambda: FreeWord(2, (True,)),
    "word string letter": lambda: FreeWord(2, ("2",)),
    "word bool rank": lambda: FreeWord(True, (1,)),
    "word float rank": lambda: FreeWord(2.0, (1,)),
    "word float shift": lambda: FreeWord(1, (1,)).shift(2.0),
    "map bool rank": lambda: FreeGroupMap(True, (FreeWord(1, (1,)),)),
    "map float identity": lambda: FreeGroupMap.identity(2.0),
    "map float power": lambda: FreeGroupMap.identity(2).power(1.5),
    "map bool power": lambda: FreeGroupMap.identity(2).power(True),
    "map float extend": lambda: FreeGroupMap.identity(2).extend(3.0),
    "map float letters": lambda: FreeGroupMap.from_letters(1, [[1.0]]),
    "matrix rows": lambda: IntMatrix.from_rows([[1.7, True], ["3", 2]]),
    "matrix bool entry": lambda: IntMatrix.from_rows([[True]]),
    "matrix float entry": lambda: IntMatrix(1, 1, ((1.0,),)),
    "matrix bool rows": lambda: IntMatrix(True, 1, ((1,),)),
    "laurent terms": lambda: LaurentPoly(((0.9, 2.5), (1, "4"))),
    "laurent bool coefficient": lambda: LaurentPoly(((0, True),)),
    "laurent float exponent": lambda: LaurentPoly(((1.0, 1),)),
    "laurent float zero term": lambda: LaurentPoly(((1.5, 0),)),
    "curve float class": lambda: CurveSpec(1, (1.0, 0)),
    "curve bool class": lambda: CurveSpec(1, (True, 0)),
    "curve string class": lambda: CurveSpec(1, ("1", 0)),
    "slope float": lambda: FillingDescriptor("Y", (1.5, 2)),
    "slope triple": lambda: FillingDescriptor("Y", (1, 2, 3)),
    "slope bool": lambda: FillingDescriptor("Y", (True, 0)),
    "slope string": lambda: FillingDescriptor("Y", ("1", 2)),
    "slope int": lambda: FillingDescriptor("Y", 3),
    "monodromy bool genus": lambda: SurfaceMonodromy(True, IntMatrix.identity(2)),
    "monodromy float genus": lambda: SurfaceMonodromy(1.0, IntMatrix.identity(2)),
    "knot float genus": lambda: FiberedKnot(Ambient.s3(), 1.0,
                                            catalog_knot("trefoil_R").monodromy),
    "two-knot bool parity": lambda: replace(spin(catalog_knot("trefoil_R")),
                                            gluck_parity=True),
    "stallings float count": lambda: stallings_twist(catalog_knot("square_knot"),
                                                     _stallings_curve(), 0.0),
    "disk bool count": lambda: disk_twist(half_spin(catalog_knot("trefoil_R")),
                                          _stallings_curve(), False),
    "distinctness float count": lambda: distinctness_bound(1.0, 2),
    "surgery float denominator": lambda: dual_knot_surgery_descriptor(
        catalog_knot("trefoil_R"), 1.0),
    "plan bool phase": lambda: PlanEntry(True, "U1", None, 0),
    "plan float genus": lambda: SurgeryPlan(1.0, 1, ()),
    "group float order": lambda: FiniteGroupTable("x", 1.0, ((0,),), ("a",)),
    "transvection bool multiplier": lambda: transvection((1, 0), True),
}

# 1 + t^(10^19): two terms, whose dense coefficient list no machine can hold.
_HUGE_SPAN = LaurentPoly(((0, 1), (10**19, 1)))

# Malformed shapes, each of which used to escape as a raw Python exception.
SHAPE_PROBES = {
    "map tuple image": lambda: FreeGroupMap(1, ((1,),)),
    "map no images": lambda: FreeGroupMap(2, None),
    "word int letters": lambda: FreeWord(2, 5),
    "matrix int row": lambda: IntMatrix(1, 1, (5,)),
    "laurent triple term": lambda: LaurentPoly(((1, 2, 3),)),
    "monodromy string action": lambda: SurfaceMonodromy(1, "x"),
    "curve int payload": lambda: CurveSpec(1, (1, 0), 5),
    "fiber string genus": lambda: FiberType("1"),
    "knot string monodromy": lambda: FiberedKnot(Ambient.s3(), 1, "x"),
    "disk string monodromy": lambda: FiberedDisk(Ambient.b4(), FiberType(2), "x"),
    "disk int history": lambda: replace(half_spin(catalog_knot("trefoil_R")), twist_history=5),
    "two-knot string monodromy": lambda: FiberedTwoKnot(Ambient.s4(), 1, "x", 0),
    "plan string curve": lambda: PlanEntry(1, "T1", "x", 1),
    "plan int entries": lambda: SurgeryPlan(1, 1, 5),
    "monodromy unpaired provenance": lambda: SurfaceMonodromy(0, IntMatrix.identity(0),
                                                              None, (5,)),
    "hom count string presentation": lambda: count_homs("x", finite_group("S3")),
    "hom count string group": lambda: count_homs(_trefoil_group(), "S3"),
    "group table no rows": lambda: FiniteGroupTable("x", 2, None, ("a", "b")),
    "group table entry out of range": lambda: FiniteGroupTable(
        "x", 3, ((0, 1, 2), (1, 0, 5), (2, 5, 0)), ("a", "b", "c")),
    "group list name": lambda: finite_group([1]),
    "transvection string": lambda: transvection("ab"),
    "twist string curve": lambda: twist_monodromy("x", 1),
    "connected sum string": lambda: connected_sum(catalog_knot("trefoil_R"), "x"),
    "hnn string monodromy": lambda: hnn_presentation("x", ["a"]),
    "h1 string": lambda: h1("x"),
    "word int text": lambda: word_from_text(5, ["a"]),
    "map int images": lambda: FreeGroupMap.from_letters(1, 5),
    "fiber negative genus": lambda: FiberType(-1),
    "identity negative size": lambda: IntMatrix.identity(-1),
    "surface names negative genus": lambda: surface_names(-1),
    "handlebody names negative genus": lambda: handlebody_names(-1),
    "symplectic form negative genus": lambda: symplectic_form(-1),
    # sizes past sys.maxsize, which no list can have
    "symplectic form huge genus": lambda: symplectic_form(10**19),
    "exponent vector huge rank": lambda: FreeWord(10**19, ()).exponent_vector(),
    "curve extend huge genus": lambda: curated_payload("g1_a1").extend(10**19, 0),
    "identity huge size": lambda: IntMatrix.identity(10**19),
    "matrix huge columns": lambda: IntMatrix(0, 10**19, ()),
    "map identity huge rank": lambda: FreeGroupMap.identity(10**19),
    "map extend huge rank": lambda: catalog_knot("trefoil_R").monodromy.pi1_action.extend(10**19),
    "word shift huge rank": lambda: FreeWord(10**19, (1,)).shift(10**19 + 5, 3),
    "surface names huge genus": lambda: surface_names(10**19),
    "handlebody names huge genus": lambda: handlebody_names(10**19),
    "monodromy identity huge genus": lambda: SurfaceMonodromy.identity(10**19),
    "dense coeffs huge span": lambda: _HUGE_SPAN.dense_coeffs(),
    "gcd huge span": lambda: laurent_gcd(_HUGE_SPAN, LaurentPoly(((0, 1), (1, 1)))),
    "gcd huge span loaded": lambda: laurent_gcd(serialize.loads(serialize.dumps(_HUGE_SPAN)),
                                                LaurentPoly(((0, 1), (1, 1)))),
}

# Entry points that take a library object: a wrong-typed argument is a
# library error, never a raw AttributeError or TypeError, and arithmetic never
# computes with it.
T = LaurentPoly(((1, 1),))
ONE_MINUS_T = LaurentPoly(((0, 1), (1, -1)))
ENTRY_PROBES = {
    "half-spin string": lambda: half_spin("x"),
    "boundary knot string": lambda: boundary_knot("x"),
    "disk twist string disk": lambda: disk_twist("x", _stallings_curve(), 1),
    "disk twist string curve": lambda: disk_twist(half_spin(catalog_knot("trefoil_R")), "x", 1),
    "exterior string": lambda: exterior_presentation("x"),
    "surjectivity string disk": lambda: boundary_surjectivity_check("x"),
    "surjectivity string matrix": lambda: boundary_surjectivity_check(
        half_spin(catalog_knot("trefoil_R")), "x"),
    "double string": lambda: double_disk("x", 0),
    "spin string": lambda: spin("x"),
    "knot group string": lambda: knot_group("x"),
    "alexander string": lambda: alexander_poly("x"),
    "mirror string": lambda: mirror_knot("x"),
    "stallings string knot": lambda: stallings_twist("x", _stallings_curve(), 1),
    "stallings string curve": lambda: stallings_twist(catalog_knot("square_knot"), "x", 1),
    "dual surgery string": lambda: dual_knot_surgery_descriptor("x", 1),
    "gluck string": lambda: gluck("x"),
    "torus twist string two-knot": lambda: torus_twist("x", _stallings_curve()),
    "torus twist string curve": lambda: torus_twist(spin(catalog_knot("trefoil_R")), "x"),
    "torus twist string automorphism": lambda: torus_twist(
        spin(catalog_knot("trefoil_R")), curated_payload("g2_a1"), "x"),
    "two-knot group string": lambda: two_knot_group("x"),
    "halving string": lambda: halving_family("x", [0]),
    "halving None slopes": lambda: halving_family(spin(catalog_knot("trefoil_R")), None),
    "halving int slopes": lambda: halving_family(spin(catalog_knot("trefoil_R")), 5),
    "halving float slope": lambda: halving_family(spin(catalog_knot("trefoil_R")), [1.0]),
    "halving int groups": lambda: halving_family(spin(catalog_knot("trefoil_R")), [0], 5),
    "halving int group name": lambda: halving_family(spin(catalog_knot("trefoil_R")), [0],
                                                     ("S3", 5)),
    "plan string source": lambda: torus_surgery_plan("x", catalog_knot("trefoil_R")),
    "plan string target": lambda: torus_surgery_plan(catalog_knot("trefoil_R"), "x"),
    "homotopy ribbon string": lambda: is_homotopy_ribbon("x"),
    "execute string two-knot": lambda: execute_plan("x", SurgeryPlan(1, 1, ())),
    "execute string plan": lambda: execute_plan(spin(catalog_knot("trefoil_R")), "x"),
    "laurent det string grid": lambda: laurent_det("x"),
    "laurent det flat grid": lambda: laurent_det([T]),
    "laurent det int entry": lambda: laurent_det([[1]]),
    "laurent gcd string first": lambda: laurent_gcd("x", T),
    "laurent gcd string second": lambda: laurent_gcd(T, "x"),
    "normalize string": lambda: normalize_alexander("x"),
    "fox alexander string": lambda: alexander_from_presentation("x"),
    "cyclic exponents string": lambda: infinite_cyclic_exponents("x"),
    "fox matrix string": lambda: fox_matrix("x"),
    "laurent bool shift": lambda: T.shift(True),
    "laurent float evaluate": lambda: ONE_MINUS_T.evaluate(1.5),
    "laurent bool evaluate": lambda: ONE_MINUS_T.evaluate(True),
    "matrix times string": lambda: IntMatrix.identity(1).mul("x"),
    "matrix plus string": lambda: IntMatrix.identity(1).add("x"),
    "char poly string": lambda: char_poly("x"),
    "smith string": lambda: smith_normal_form("x"),
    "block string": lambda: block_diag(IntMatrix.identity(1), "x"),
    "compatibility string action": lambda: cg_compatibility("x", IntMatrix.identity(1)),
    "compatibility string quotient": lambda: cg_compatibility(IntMatrix.identity(2), "x"),
    "compose monodromy string": lambda: compose_monodromy(SurfaceMonodromy.identity(1), "x"),
    "twist word int entry": lambda: SurfaceMonodromy.from_twist_word(1, [5]),
    "twist word string": lambda: SurfaceMonodromy.from_twist_word(1, "ab"),
    "mirror monodromy string": lambda: mirror("x"),
    "boundary sum string": lambda: boundary_connected_sum(SurfaceMonodromy.identity(1), "x"),
    "symplectic string": lambda: is_symplectic("x"),
    "abelianize string": lambda: abelianize("x"),
    "apply map string word": lambda: apply_map(FreeGroupMap.identity(1), "x"),
    "compose string": lambda: compose(FreeGroupMap.identity(1), "x"),
    "surface names None genus": lambda: surface_names(None),
    "handlebody names float genus": lambda: handlebody_names(1.5),
    "symplectic form string genus": lambda: symplectic_form("x"),
    "intersection string classes": lambda: intersection("ab", "cd"),
    "filling multiplicity None slope": lambda: seifert_filling_multiplicity(None, 1, 1),
    "word to text None word": lambda: word_to_text(None, ("a",)),
    "word to text string names": lambda: word_to_text(FreeWord(2, (1, 2)), "ab"),
    "catalog knot list name": lambda: catalog_knot([1]),
    "curated payload list name": lambda: curated_payload([1]),
    "parse int script": lambda: parse_script(5),
    "execute int script": lambda: execute(5),
    "execute None statements": lambda: execute(SurgeryScript(None)),
    "execute string statement": lambda: execute(SurgeryScript(("x",))),
    "execute None arguments": lambda: execute(SurgeryScript((Statement("load", None),))),
}

# String fields that `serialize.loads` reads as JSON strings: a constructor
# that took another type would build an object whose dump does not load.
STRING_PROBES = {
    "knot label": lambda: FiberedKnot(Ambient.s3(), 1, catalog_knot("trefoil_R").monodromy,
                                      label=5),
    "ambient descriptor": lambda: Ambient("contractible", 7),
    "curve name": lambda: CurveSpec(1, (1, 0), name=3),
    "fiber summand label": lambda: FiberType(1, 2),
    "disk label": lambda: replace(half_spin(catalog_knot("trefoil_R")), label=5),
    "two-knot label": lambda: replace(spin(catalog_knot("trefoil_R")), label=5),
    "two-knot provenance": lambda: replace(spin(catalog_knot("trefoil_R")), provenance=(5,)),
    "filling base": lambda: FillingDescriptor(5, (1, 0)),
}


@pytest.mark.parametrize("build", PROBES.values(), ids=PROBES.keys())
def test_constructor_rejects_non_integers(build):
    with pytest.raises(MalformedInputError):
        build()


@pytest.mark.parametrize("build", SHAPE_PROBES.values(), ids=SHAPE_PROBES.keys())
def test_malformed_shape_is_a_library_error(build):
    with pytest.raises((MalformedInputError, RankMismatchError)):
        build()


@pytest.mark.parametrize("probe, size", [("symplectic form huge genus", 2 * 10**19),
                                         ("exponent vector huge rank", 10**19),
                                         ("curve extend huge genus", 2 * 10**19),
                                         ("identity huge size", 10**19),
                                         ("matrix huge columns", 10**19),
                                         ("map identity huge rank", 10**19),
                                         ("map extend huge rank", 10**19),
                                         ("word shift huge rank", 10**19 + 5),
                                         ("surface names huge genus", 2 * 10**19),
                                         ("handlebody names huge genus", 10**19),
                                         ("monodromy identity huge genus", 2 * 10**19),
                                         ("dense coeffs huge span", 10**19 + 1),
                                         ("gcd huge span", 10**19 + 1),
                                         ("gcd huge span loaded", 10**19 + 1)])
def test_size_past_maxsize_is_named(probe, size):
    with pytest.raises(MalformedInputError, match=f"{size} is too large"):
        SHAPE_PROBES[probe]()


@pytest.mark.parametrize("build", ENTRY_PROBES.values(), ids=ENTRY_PROBES.keys())
def test_entry_point_rejects_wrong_types(build):
    with pytest.raises(MalformedInputError):
        build()


@pytest.mark.parametrize("build", STRING_PROBES.values(), ids=STRING_PROBES.keys())
def test_string_field_rejects_other_types(build):
    with pytest.raises(MalformedInputError):
        build()


def test_group_presentation_checks_generator_names():
    with pytest.raises(MalformedInputError):
        GroupPresentation("ab", ())
    with pytest.raises(MalformedInputError):
        GroupPresentation(("a b",), ())
    with pytest.raises(MalformedInputError):
        GroupPresentation(("x", "x"), ())
    with pytest.raises(MalformedInputError):
        GroupPresentation(("x", 1), ())
    p = GroupPresentation(["x", "y"], (FreeWord(2, (1, 2)),))
    assert p.generators == ("x", "y")
    assert p.text() == "< x y | x y >"


def test_integer_inputs_still_build():
    assert FreeWord(2, [1, -2, 2]).letters == (1,)
    assert IntMatrix.from_rows([[1, 0], [0, 1]]) == IntMatrix.identity(2)
    assert IntMatrix(1, 2, [[3, -4]]).entries == ((3, -4),)
    assert LaurentPoly(((2, 1), (0, -1), (1, 0))).terms == ((0, -1), (2, 1))
    assert CurveSpec(1, [1, 0]).homology_class == (1, 0)
    assert FillingDescriptor("Y", [-1, 3]).slope == (-1, 3)
    assert LaurentPoly([[1, 2], (0, 0)]).terms == ((1, 2),)
    assert IntMatrix(1, 1, [[5]]).entries == ((5,),)


# Calls that write an integer of more digits than Python writes as text
# (4300 by default), in a label, a note or JSON: each names the digit count
# in a library error.
_HUGE = 10**5000
_HUGE_REPORTED = 10**4400  # its twist leaves |alexander(1)| at 4401 digits


def _payload_less(genus):
    classes = {1: (0, 1), 2: (0, 1, 0, 0)}
    return CurveSpec(genus, classes[genus], None, bounds_disk_in_handlebody=True,
                     unknotted_in_ambient=True, fiber_framing_zero=True, name="c")


def _unlabeled_twist(m):
    knot = catalog_knot("trefoil_R")
    return stallings_twist(FiberedKnot(knot.ambient, knot.genus, knot.monodromy),
                           _payload_less(1), m)


LONG_INTEGER_PROBES = {
    "double disk": (lambda: double_disk(half_spin(catalog_knot("trefoil_R")), _HUGE), 5001),
    "dual knot surgery": (lambda: dual_knot_surgery_descriptor(catalog_knot("trefoil_R"),
                                                               _HUGE), 5001),
    "halving family": (lambda: halving_family(spin(catalog_knot("trefoil_R")), [_HUGE]), 5001),
    "stallings twist": (lambda: stallings_twist(catalog_knot("trefoil_R"), _payload_less(1),
                                                _HUGE), 5001),
    "disk twist": (lambda: disk_twist(half_spin(catalog_knot("trefoil_R")), _payload_less(2),
                                      _HUGE), 5001),
    "report of a twist": (lambda: build_report(_unlabeled_twist(_HUGE_REPORTED)), 4401),
    "dumps of a twist": (lambda: serialize.dumps(_unlabeled_twist(_HUGE_REPORTED)), 4401),
    "free word letter": (lambda: FreeWord(2, (_HUGE,)), 5001),
    "laurent term": (lambda: LaurentPoly(((_HUGE, 1, 2),)), 5001),
    "filling slope": (lambda: FillingDescriptor("Y", (_HUGE, 1.5)), 5001),
    "report of a curve": (lambda: build_report(CurveSpec(1, (_HUGE, 1))), 5001),
    "laurent repr": (lambda: repr(LaurentPoly(((_HUGE, 1),))), 5001),
    "matrix repr": (lambda: repr(IntMatrix(1, 1, ((_HUGE,),))), 5001),
    "curve repr": (lambda: repr(CurveSpec(1, (_HUGE, 0))), 5001),
    "word repr": (lambda: repr(FreeWord(_HUGE, ())), 5001),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes integers of any length as text")
@pytest.mark.parametrize("call", LONG_INTEGER_PROBES.values(), ids=LONG_INTEGER_PROBES.keys())
def test_integer_too_long_to_write_is_a_library_error(call):
    build, digits = call
    with pytest.raises(FibcalcError, match=f" {digits} digits"):
        build()


# The values every required positional parameter of every exported callable
# is drawn from: wrong types, a bool and a float where integers go, and
# library objects: a matrix, a knot, a 2-knot, a disk and a curve, so that
# the second and later arguments of the entry points that take those are
# swept too.  No large integers, so no call does real work at scale.
SWEEP_POOL = (None, "x", 1.5, True, [1], IntMatrix.identity(2), catalog_knot("trefoil_R"),
              spin(catalog_knot("trefoil_R")), half_spin(catalog_knot("trefoil_R")),
              curated_payload("square_knot_stallings_c1"))


def _exported_callables():
    for name, obj in sorted(vars(fibcalc).items()):
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        yield name, obj


def _sweep(callables) -> list[str]:
    """Call each (name, callable) with every combination of pool values for
    its required positional parameters; the first call of each that raises
    anything but a `FibcalcError` is a leak."""
    leaks = []
    for name, obj in callables:
        params = inspect.signature(obj).parameters.values()
        arity = sum(1 for p in params if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD))
        for args in product(SWEEP_POOL, repeat=arity):
            try:
                obj(*args)
            except FibcalcError:
                pass
            except Exception as exc:
                leaks.append(f"{name}{args!r}: {exc!r}")
                break
    return leaks


def test_every_export_returns_or_raises_a_library_error():
    """Every combination of pool values for the required positional
    parameters either returns or raises a `FibcalcError`; a raw
    `TypeError`, `KeyError` or the like fails the sweep."""
    leaks = _sweep(_exported_callables())
    assert not leaks, "\n".join(leaks)


# One valid instance of each value class, and the binary operators swept
# beside their public methods and classmethods.
SWEEP_INSTANCES = (FreeWord(2, (1, -2)), FreeGroupMap.identity(2), ONE_MINUS_T,
                   IntMatrix.from_rows([[2, 1], [1, 1]]), finite_group("S3"))
SWEEP_OPERATORS = ("__mul__", "__add__", "__sub__", "__pow__", "__matmul__")


def _value_class_callables():
    for instance in SWEEP_INSTANCES:
        cls = type(instance)
        for name in sorted(vars(cls)):
            if name.startswith("_") and name not in SWEEP_OPERATORS:
                continue
            bound = getattr(instance, name)
            if inspect.isroutine(bound):
                yield f"{cls.__name__}.{name}", bound


def test_every_value_class_method_returns_or_raises_a_library_error():
    """The sweep one level down: the public classmethods, methods and binary
    operators of a valid instance, with the same pool and the same rule."""
    leaks = _sweep(_value_class_callables())
    assert not leaks, "\n".join(leaks)
