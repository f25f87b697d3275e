import pytest

from fibcalc.errors import (MalformedInputError, MissingPayloadError, PreconditionError,
                            UnsupportedFiberError)
from fibcalc.fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot,
                             connected_sum, dual_knot_surgery_descriptor, stallings_twist)
from fibcalc.invariants import count_homs, finite_group, h1
from fibcalc.laurent import normalize_alexander
from fibcalc.matrices import char_poly
from fibcalc.mcg import SurfaceMonodromy, curated_payload, transvection
from fibcalc.ribbon_disk import FiberType, FiberedDisk, disk_twist, half_spin
from fibcalc.two_knot import (FillingDescriptor, PlanEntry, SurgeryPlan, double_disk,
                              execute_plan, gluck, halving_family,
                              seifert_filling_multiplicity, spin, torus_surgery_plan,
                              torus_twist, two_knot_group)
from fibcalc.words import FreeGroupMap, abelianize


def same_two_knot_data(s1, s2):
    return (s1.ambient, s1.fiber_rank, s1.monodromy_pi1, s1.gluck_parity) == \
        (s2.ambient, s2.fiber_rank, s2.monodromy_pi1, s2.gluck_parity)


def test_double_trivial_disk():
    s = double_disk(half_spin(catalog_knot("unknot")), 0)
    assert s.fiber_rank == 0 and s.ambient.kind == "S4"
    p = two_knot_group(s)
    assert p.generators == ("t",) and p.relators == ()


def test_double_parity_and_group_independence():
    d = half_spin(catalog_knot("trefoil_R"))
    assert double_disk(d, 3).gluck_parity == 1
    assert double_disk(d, 4).gluck_parity == 0
    assert two_knot_group(double_disk(d, 3)) == two_knot_group(double_disk(d, 8))


def test_double_requires_handlebody_fiber():
    d = half_spin(catalog_knot("trefoil_R"))
    stuffed = FiberedDisk(d.ambient, FiberType(2, "summand"), d.monodromy)
    with pytest.raises(UnsupportedFiberError):
        double_disk(stuffed, 0)


def test_spin_basics():
    k = catalog_knot("trefoil_R")
    s = spin(k)
    assert s.fiber_rank == 2
    assert s.gluck_parity == 0
    assert s.arose_from_spinning
    # spinning preserves the Alexander polynomial
    got = normalize_alexander(char_poly(abelianize(s.monodromy_pi1)))
    assert got == alexander_poly(k)
    assert h1(two_knot_group(s)) == [0]


@pytest.mark.parametrize("knot, error, message", [
    (lambda: dual_knot_surgery_descriptor(catalog_knot("trefoil_R"), 1), PreconditionError,
     "half-spin is defined for knots in S3"),
    (lambda: FiberedKnot(Ambient.s3(), 1, SurfaceMonodromy(1, transvection((1, 0)))),
     MissingPayloadError, "half-spin needs the knot's pi1 payload with witness"),
    (lambda: "x", MalformedInputError, "knot must be a FiberedKnot, not 'x'"),
], ids=["not in S3", "no payload", "not a knot"])
def test_spin_errors_are_the_half_spin_errors(knot, error, message):
    for construction in (spin, half_spin):
        with pytest.raises(error) as exc:
            construction(knot())
        assert str(exc.value) == message


def test_spin_unknot_is_trivial_sphere():
    s = spin(catalog_knot("unknot"))
    assert s.fiber_rank == 0
    assert two_knot_group(s).generators == ("t",)


def test_gluck_involution():
    s = spin(catalog_knot("trefoil_R"))
    assert gluck(s).gluck_parity == 1
    assert gluck(gluck(s)) == s
    assert two_knot_group(gluck(s)) == two_knot_group(s)


def test_spin_group_hom_counts_match_knot_group():
    from fibcalc.fibered import knot_group
    k = catalog_knot("trefoil_R")
    s = spin(k)
    for name in ("Z5", "S3", "A4"):
        g = finite_group(name)
        assert count_homs(two_knot_group(s), g) == count_homs(knot_group(k), g)


def test_halving_family_structure():
    s = spin(catalog_knot("trefoil_R"))
    entries = halving_family(s, [0, 1, 2, 3], groups=("S3", "A4"))
    assert [e.slope for e in entries] == [0, 1, 2, 3]
    first = entries[0]
    for e in entries:
        assert e.interior_presentation == first.interior_presentation
        assert e.boundary_descriptor.base == first.boundary_descriptor.base
        assert e.boundary_descriptor.slope == (-1, e.slope)
        assert e.contractibility_report.contractible_consistent
    assert first.contractibility_report.h1_diagonal == ()


def test_filling_descriptor_validation():
    with pytest.raises(Exception):
        FillingDescriptor("Y", (2, 4))
    assert str(FillingDescriptor("Y", (-1, 2))) == "Y(-1/2)"
    assert str(FillingDescriptor("Y", (-1, 0))) == "Y"


def test_seifert_filling_multiplicity():
    assert seifert_filling_multiplicity(2, 3, 5) == 7
    assert seifert_filling_multiplicity(1, 0, 0) == 0
    for m in (-3, 0, 4):
        assert seifert_filling_multiplicity(0, 1, m) == -1
    with pytest.raises(PreconditionError):
        seifert_filling_multiplicity(2, 4, 1)


def test_torus_twist_requires_spin_provenance_or_automorphism():
    d = half_spin(catalog_knot("trefoil_R"))
    s = double_disk(d, 0)  # doubled, but not marked as a spin
    c = curated_payload("g1_b1")
    with pytest.raises(PreconditionError):
        torus_twist(s, c)
    # explicit automorphism works regardless of provenance
    out = torus_twist(s, c, fiber_automorphism=c.pi1_payload)
    assert out.fiber_rank == s.fiber_rank


def test_torus_twist_trivial_curve():
    from fibcalc.mcg import CurveSpec
    s = spin(catalog_knot("trefoil_R"))
    trivial = CurveSpec(1, (0, 0), FreeGroupMap.identity(2), name="trivial")
    assert same_two_knot_data(torus_twist(s, trivial), s)


def test_torus_twist_inverse_word_cancels_monodromy():
    # composing with the inverse twist word reduces the monodromy to the
    # identity automorphism by free cancellation
    k = catalog_knot("trefoil_R")
    s = spin(k)
    a1, b1 = curated_payload("g1_a1"), curated_payload("g1_b1")
    out = torus_twist(torus_twist(s, b1, fiber_automorphism=b1.pi1_payload.inverse()),
                      a1, fiber_automorphism=a1.pi1_payload.inverse())
    assert out.monodromy_pi1 == FreeGroupMap.identity(2)
    assert out.fiber_rank == 2 and out.gluck_parity == s.gluck_parity


def test_corollary_square_spin_stallings_vs_torus_twist():
    sq = catalog_knot("square_knot")
    c1 = curated_payload("square_knot_stallings_c1")
    lhs = spin(stallings_twist(sq, c1, 1))
    rhs = torus_twist(spin(sq), c1)
    assert same_two_knot_data(lhs, rhs)
    assert lhs == rhs  # dataclass equality ignores provenance/labels


def test_plan_identical_knots_is_empty():
    k = catalog_knot("trefoil_R")
    assert torus_surgery_plan(k, k).entries == ()


def test_plan_equal_genus_replays():
    k1, k2 = catalog_knot("trefoil_R"), catalog_knot("figure8")
    plan = torus_surgery_plan(k1, k2)
    assert {e.phase for e in plan.entries} == {1}
    assert all(not e.is_stabilization for e in plan.entries)
    replayed = execute_plan(spin(k1), plan)
    assert same_two_knot_data(replayed, spin(k2))


def test_plan_genus_increase():
    k1 = catalog_knot("trefoil_R")
    k3 = connected_sum(connected_sum(k1, k1), k1)
    assert k3.genus == 3
    plan = torus_surgery_plan(k1, k3)
    stabilizers = [e for e in plan.entries if e.phase == 1]
    assert len(stabilizers) == 4  # 2 * (3 - 1)
    assert all(e.is_stabilization for e in stabilizers)
    assert all(not e.is_stabilization for e in plan.entries if e.phase == 2)
    replayed = execute_plan(spin(k1), plan)
    assert same_two_knot_data(replayed, spin(k3))


def test_plan_rejects_monodromies_without_twist_words():
    from fibcalc.fibered import Ambient, FiberedKnot
    from fibcalc.mcg import SurfaceMonodromy
    k = catalog_knot("trefoil_R")
    bare = FiberedKnot(Ambient.s3(), 1,
                       SurfaceMonodromy(1, k.monodromy.action, k.monodromy.pi1_action))
    with pytest.raises(PreconditionError):
        torus_surgery_plan(bare, k)
    with pytest.raises(PreconditionError):
        torus_surgery_plan(catalog_knot("square_knot"), k)  # decreasing genus


def test_every_catalog_plan_constructs():
    from fibcalc.mcg import SurfaceMonodromy, catalog_names
    knots = [catalog_knot(name) for name in catalog_names()
             if isinstance(curated_payload(name), SurfaceMonodromy)]
    for k1 in knots:
        for k2 in knots:
            if k1.genus <= k2.genus:
                plan = torus_surgery_plan(k1, k2)
                assert type(plan.entries) is tuple
                assert SurgeryPlan(plan.source_genus, plan.target_genus,
                                   list(plan.entries)) == plan


def test_plan_entry_validation():
    c = curated_payload("g1_a1")
    for phase, curve, sign in ((0, c, 1), (3, c, 1), (-3, None, 0), (1, c, 7), (1, c, 0),
                               (2, c, -2), (1, None, 1), (2, None, -1)):
        with pytest.raises(MalformedInputError):
            PlanEntry(phase, "T1", curve, sign)
    assert PlanEntry(2, "T1", c, -1).twist_sign == -1
    assert PlanEntry(1, "U1", None, 0).is_stabilization


def test_doubling_inherits_homotopy_ball_ambient():
    d = half_spin(catalog_knot("trefoil_R"))
    knotted = curated_payload("square_knot_stallings_c1")
    from fibcalc.errors import replace
    bad_curve = replace(knotted, unknotted_in_ambient=False)
    degraded = disk_twist(d, bad_curve, 1)
    assert degraded.ambient.kind == "homotopy_B4"
    assert double_disk(degraded, 0).ambient.kind == "homotopy_S4"


def test_torus_twist_missing_payload():
    from fibcalc.mcg import CurveSpec
    s = spin(catalog_knot("trefoil_R"))
    bare = CurveSpec(1, (0, 1), name="no_payload")
    with pytest.raises(MissingPayloadError):
        torus_twist(s, bare)


def test_group_shapes_relator_counts():
    from fibcalc.ribbon_disk import exterior_presentation, half_spin
    for name in ("unknot", "trefoil_R", "square_knot"):
        k = catalog_knot(name)
        s = spin(k)
        assert len(two_knot_group(s).relators) == s.fiber_rank
        d = half_spin(k)
        assert len(exterior_presentation(d).relators) == d.monodromy.genus


def test_corollary_square_through_adapted_boundary():
    # the geometrically anchored route: the square knot presented as the
    # boundary of the half-spun trefoil, where c1 genuinely has framing zero
    from fibcalc.ribbon_disk import boundary_knot
    bd = boundary_knot(half_spin(catalog_knot("trefoil_R")))
    c1 = curated_payload("square_knot_stallings_c1")
    assert spin(stallings_twist(bd, c1, 1)) == torus_twist(spin(bd), c1)
