import random

import pytest

from fibcalc.errors import (MissingPayloadError, PreconditionError,
                            RankMismatchError, UnsupportedFiberError)
from fibcalc.fibered import alexander_poly, catalog_knot, stallings_twist
from fibcalc.invariants import h1
from fibcalc.matrices import IntMatrix
from fibcalc.mcg import SurfaceMonodromy, cg_compatibility, curated_payload
from fibcalc.ribbon_disk import (FiberType, FiberedDisk, boundary_knot,
                                 boundary_surjectivity_check, disk_twist,
                                 doubled_boundary, exterior_presentation, half_spin,
                                 is_homotopy_ribbon)
from fibcalc.words import abelianize


def trefoil_disk():
    return half_spin(catalog_knot("trefoil_R"))


def c1():
    return curated_payload("square_knot_stallings_c1")


def test_half_spin_trivial_disk():
    d = half_spin(catalog_knot("unknot"))
    assert d.fiber == FiberType(0)
    assert is_homotopy_ribbon(d)
    b = boundary_knot(d)
    assert b.genus == 0 and alexander_poly(b).dense_coeffs() == [1]
    assert exterior_presentation(d).generators == ("t",)


def test_half_spin_trefoil():
    d = trefoil_disk()
    assert d.fiber == FiberType(2)
    assert d.ambient.kind == "B4"
    b = boundary_knot(d)
    assert b.genus == 2
    assert alexander_poly(b).dense_coeffs() == [1, -2, 3, -2, 1]
    p = exterior_presentation(d)
    assert p.generators == ("x1", "x2", "t")
    assert h1(p) == [0]


def test_half_spin_requires_s3_and_payload():
    k = catalog_knot("trefoil_R")
    from fibcalc.fibered import dual_knot_surgery_descriptor
    with pytest.raises(PreconditionError):
        half_spin(dual_knot_surgery_descriptor(k, 1))
    from fibcalc.fibered import Ambient, FiberedKnot
    homological = FiberedKnot(Ambient.s3(), 1, SurfaceMonodromy(1, k.monodromy.action))
    with pytest.raises(MissingPayloadError):
        half_spin(homological)


def test_doubled_boundary_matches_hand_computation():
    d = doubled_boundary(catalog_knot("trefoil_R").monodromy)
    assert d.action == IntMatrix.from_rows([
        [0, 0, -1, 0],
        [1, 1, 0, -1],
        [1, 0, 1, 0],
        [0, 1, -1, 0],
    ])
    # and the pi1 payload abelianizes to it (checked at construction, restated)
    assert abelianize(d.pi1_action) == d.action


def test_doubled_boundary_invariant_level_connected_sum():
    # the boundary of the half-spin carries the K # (-K) invariants
    from fibcalc.fibered import connected_sum, mirror_knot
    for name in ("trefoil_R", "figure8"):
        k = catalog_knot(name)
        lhs = alexander_poly(boundary_knot(half_spin(k)))
        rhs = alexander_poly(connected_sum(k, mirror_knot(k)))
        assert lhs == rhs


def test_every_disk_passes_cg_on_its_own_boundary():
    for name in ("unknot", "trefoil_R", "figure8", "square_knot"):
        d = half_spin(catalog_knot(name))
        report = cg_compatibility(d.monodromy.boundary.action,
                                  abelianize(d.monodromy.pi1_action))
        assert report.ok


def test_disk_twist_preconditions():
    d = trefoil_disk()
    bad = curated_payload("g2_a1")  # not a disk boundary
    with pytest.raises(PreconditionError):
        disk_twist(d, bad, 1)
    small = curated_payload("g1_b1")
    from fibcalc.mcg import CurveSpec
    lagr = CurveSpec(1, (0, 1), bounds_disk_in_handlebody=True)
    with pytest.raises(RankMismatchError):
        disk_twist(d, lagr, 1)


def test_disk_twist_exterior_presentation_stable():
    d = trefoil_disk()
    base = exterior_presentation(d)
    for m in range(-2, 3):
        assert exterior_presentation(disk_twist(d, c1(), m)) == base


def test_disk_twist_zero_and_inverse():
    d = trefoil_disk()
    assert disk_twist(d, c1(), 0) is d
    there = disk_twist(d, c1(), 2)
    back = disk_twist(there, c1(), -2)
    assert back.monodromy == d.monodromy
    assert back.twist_history == ((c1(), 2), (c1(), -2))


def test_disk_twist_commutes_with_boundary_stallings():
    d = trefoil_disk()
    for m in (-2, -1, 1, 2):
        lhs = boundary_knot(disk_twist(d, c1(), m))
        rhs = stallings_twist(boundary_knot(d), c1(), m)
        assert lhs.monodromy == rhs.monodromy
        assert lhs.ambient == rhs.ambient


def test_disk_twist_boundary_alexander_stays_in_family():
    # [c1] = [b1] lies in the Lagrangian, so both char-poly factors of the
    # boundary action are untouched: the Alexander polynomial cannot move
    d = trefoil_disk()
    for m in (-2, -1, 0, 1, 2):
        got = alexander_poly(boundary_knot(disk_twist(d, c1(), m)))
        assert got.dense_coeffs() == [1, -2, 3, -2, 1]


def test_disk_twist_ambient_degrades_without_unknottedness():
    from fibcalc.mcg import CurveSpec
    d = trefoil_disk()
    knotted = CurveSpec(2, (0, 1, 0, 0), c1().pi1_payload,
                        bounds_disk_in_handlebody=True, unknotted_in_ambient=False,
                        fiber_framing_zero=True, name="knotted_disk")
    out = disk_twist(d, knotted, 1)
    assert out.ambient.kind == "homotopy_B4"
    assert boundary_knot(out).ambient.kind == "S3"


def test_homotopy_ribbon_flag():
    d = trefoil_disk()
    assert is_homotopy_ribbon(d)
    stuffed = FiberedDisk(d.ambient, FiberType(2, "spun_trefoil_fiber"), d.monodromy)
    assert not is_homotopy_ribbon(stuffed)
    with pytest.raises(UnsupportedFiberError):
        exterior_presentation(stuffed)


def test_boundary_surjectivity_check():
    d = trefoil_disk()
    assert boundary_surjectivity_check(d)
    doubled = IntMatrix.from_rows([[2, 0, 0, 0], [0, 0, 2, 0]])
    assert not boundary_surjectivity_check(d, doubled)
    onto = IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])
    assert boundary_surjectivity_check(d, onto)
    assert boundary_surjectivity_check(half_spin(catalog_knot("unknot")))


def test_random_genus2_half_spins_satisfy_invariants():
    rng = random.Random(6)
    kinds = ["g2_a1", "g2_b1", "g2_a2", "g2_b2"]
    from fibcalc.fibered import Ambient, FiberedKnot
    for _ in range(10):
        word = [(curated_payload(rng.choice(kinds)), rng.choice([-1, 1]))
                for _ in range(rng.randint(1, 5))]
        mono = SurfaceMonodromy.from_twist_word(2, word)
        knot = FiberedKnot(Ambient.s3(), 2, mono)
        disk = half_spin(knot)  # construction re-checks all invariants
        assert disk.monodromy.genus == 4
        assert abelianize(disk.monodromy.pi1_action) == mono.action


def test_adapted_boundary_presents_the_same_group():
    # the doubled payload and the block-sum model present the same knot
    # group: identical Fox Alexander and identical quotient counts
    from fibcalc.fibered import knot_group
    from fibcalc.invariants import alexander_from_presentation, count_homs, finite_group
    bd = boundary_knot(half_spin(catalog_knot("trefoil_R")))
    via_double = knot_group(bd)
    via_sum = knot_group(catalog_knot("square_knot"))
    assert alexander_from_presentation(via_double).dense_coeffs() == [1, -2, 3, -2, 1]
    for name in ("Z2", "Z3", "S3", "D4", "A4"):
        g = finite_group(name)
        assert count_homs(via_double, g) == count_homs(via_sum, g)
