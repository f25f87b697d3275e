import random
import sys

import pytest

from fibcalc.errors import (InapplicableError, MissingPayloadError,
                            PreconditionError, RankMismatchError)
from fibcalc.fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot,
                             connected_sum, distinctness_bound,
                             dual_knot_surgery_descriptor, knot_group, mirror_knot,
                             stallings_twist)
from fibcalc.invariants import h1
from fibcalc.laurent import LaurentPoly, normalize_alexander
from fibcalc.matrices import char_poly
from fibcalc.mcg import CurveSpec, SurfaceMonodromy, catalog_names, curated_payload, symplectic_form
from oracles import dense_symplectic, laurent_product, trefoil_two_bridge_presentation


def trefoil():
    return catalog_knot("trefoil_R")


def test_knot_group_shapes():
    unknot = catalog_knot("unknot")
    p = knot_group(unknot)
    assert p.generators == ("t",) and p.relators == ()
    p3 = knot_group(trefoil())
    assert p3.generators == ("a1", "b1", "t")
    assert len(p3.relators) == 2
    assert h1(p3) == [0]


def test_knot_group_needs_payload():
    homological = SurfaceMonodromy(1, curated_payload("trefoil_R").action)
    knot = FiberedKnot(Ambient.s3(), 1, homological)
    with pytest.raises(MissingPayloadError):
        knot_group(knot)
    # degraded mode still computes the Alexander polynomial
    assert alexander_poly(knot).dense_coeffs() == [1, -1, 1]


def test_alexander_values():
    assert alexander_poly(catalog_knot("unknot")).dense_coeffs() == [1]
    assert alexander_poly(trefoil()).dense_coeffs() == [1, -1, 1]
    assert alexander_poly(catalog_knot("square_knot")).dense_coeffs() == [1, -2, 3, -2, 1]


def test_stallings_twist_basics():
    k = catalog_knot("square_knot")
    c1 = curated_payload("square_knot_stallings_c1")
    assert stallings_twist(k, c1, 0) is k
    twisted = stallings_twist(k, c1, 2)
    back = stallings_twist(twisted, c1, -2)
    assert back.monodromy == k.monodromy
    # a null-homologous curve leaves the Alexander polynomial alone
    c0 = CurveSpec(2, (0, 0, 0, 0), fiber_framing_zero=True, name="null")
    for m in (-2, 1, 3):
        assert alexander_poly(stallings_twist(k, c0, m)) == alexander_poly(k)


def test_stallings_twist_preconditions():
    k = catalog_knot("square_knot")
    no_frame = CurveSpec(2, (0, 1, 0, 0))
    with pytest.raises(PreconditionError):
        stallings_twist(k, no_frame, 1)
    wrong_genus = curated_payload("g1_b1")
    c = CurveSpec(1, wrong_genus.homology_class, wrong_genus.pi1_payload,
                  fiber_framing_zero=True)
    with pytest.raises(RankMismatchError):
        stallings_twist(k, c, 1)


def test_distinctness_bound():
    assert distinctness_bound(1, 2) is True
    assert distinctness_bound(10, 2) is False   # 10 <= 9*2-3
    assert distinctness_bound(16, 2) is True    # 16 > 15
    assert distinctness_bound(-1, 5) is True
    assert distinctness_bound(0, 2) is False
    with pytest.raises(InapplicableError):
        distinctness_bound(1, 1)


def test_connected_sum():
    k = trefoil()
    uk = catalog_knot("unknot")
    assert connected_sum(k, uk).monodromy == k.monodromy
    sq = connected_sum(k, mirror_knot(k))
    assert sq.genus == 2
    assert alexander_poly(sq) == laurent_product(alexander_poly(k), alexander_poly(mirror_knot(k)))
    assert sq.monodromy == catalog_knot("square_knot").monodromy
    moved = dual_knot_surgery_descriptor(k, 1)
    with pytest.raises(PreconditionError):
        connected_sum(k, moved)


def test_dual_knot_descriptor():
    k = trefoil()
    dual = dual_knot_surgery_descriptor(k, 1)
    assert dual.ambient.kind == "homology_sphere"
    assert "1/1" in dual.ambient.descriptor
    assert dual.monodromy is k.monodromy
    assert alexander_poly(dual) == alexander_poly(k)
    with pytest.raises(PreconditionError):
        dual_knot_surgery_descriptor(k, 0)
    with pytest.raises(PreconditionError):
        dual_knot_surgery_descriptor(dual, 2)


def test_two_bridge_presentation():
    p = trefoil_two_bridge_presentation()
    assert p.generators == ("u", "v")
    assert h1(p) == [0]


def test_palindromic_alexander():
    for name in ("trefoil_R", "trefoil_L", "figure8", "square_knot", "granny_knot"):
        p = alexander_poly(catalog_knot(name))
        assert p.dense_coeffs() == p.dense_coeffs()[::-1]
        assert abs(p.evaluate(1)) == 1


def test_stallings_roundtrip_full_equality():
    k = catalog_knot("square_knot")
    c1 = curated_payload("square_knot_stallings_c1")
    assert stallings_twist(stallings_twist(k, c1, 1), c1, -1) == k


def test_knot_group_relator_count():
    for name in ("unknot", "trefoil_R", "square_knot", "granny_knot"):
        k = catalog_knot(name)
        assert len(knot_group(k).relators) == 2 * k.genus


def test_degraded_mode_supports_stallings_twist():
    # homology-only knots still twist and report Alexander data; the adapted
    # half-spin boundary basis keeps the Lagrangian invariant, so the
    # polynomial is pinned to the square-knot value for every m
    from fibcalc.ribbon_disk import boundary_knot, half_spin
    bd = boundary_knot(half_spin(catalog_knot("trefoil_R")))
    bare = FiberedKnot(Ambient.s3(), 2, SurfaceMonodromy(2, bd.monodromy.action))
    c1 = curated_payload("square_knot_stallings_c1")
    twisted = stallings_twist(bare, c1, 1)
    assert twisted.monodromy.pi1_action is None
    assert alexander_poly(twisted).dense_coeffs() == [1, -2, 3, -2, 1]


def test_twist_in_non_lagrangian_basis_changes_alexander():
    # the block-sum model of the square knot does not preserve the standard
    # Lagrangian, so the same class twists its polynomial away (checked
    # against an independent symbolic computation: (t^2+1)(t^2-t+1))
    sq = catalog_knot("square_knot")
    c1 = curated_payload("square_knot_stallings_c1")
    twisted = stallings_twist(sq, c1, 1)
    assert alexander_poly(twisted).dense_coeffs() == [1, -1, 2, -1, 1]
    assert abs(alexander_poly(twisted).evaluate(1)) == 2  # no longer knot-like


def test_alexander_poly_is_the_normalized_char_poly_on_catalog_and_derived_knots():
    """The reciprocal route (g power sums, mirrored) against the general
    `char_poly` (all 2g power sums) on every catalog knot, their
    connected sums and mirrors, and Stallings twists of the square knot along
    each catalog curve (symplectic whatever the twist does to the knot)."""
    catalog = [catalog_knot(name) for name in catalog_names()
               if isinstance(curated_payload(name), SurfaceMonodromy)]
    knots = catalog + [connected_sum(k1, k2) for k1 in catalog for k2 in catalog]
    knots += [mirror_knot(k) for k in knots]
    square = catalog_knot("square_knot")
    knots += [stallings_twist(square, curated_payload(f"square_knot_stallings_{c}"), m)
              for c in ("c1", "c1_neg", "c2", "c2_neg") for m in (-1, 1, 2, 16, 40)]
    assert len(catalog) == 6 and len(knots) == 104
    for knot in knots:
        assert alexander_poly(knot) == normalize_alexander(char_poly(knot.monodromy.action))


def test_alexander_poly_runs_no_char_poly(monkeypatch):
    """With every binding of `matrices.char_poly` made to raise, a dense
    genus-6 knot still gets its Alexander polynomial: the reciprocal route
    forms g power sums, not all 2g."""
    rng = random.Random(6)
    names = [rng.choice(("trefoil_R", "trefoil_L", "figure8")) for _ in range(6)]
    knot = catalog_knot(names[0])
    for name in names[1:]:
        knot = connected_sum(knot, catalog_knot(name))
    p, j = dense_symplectic(rng, 6), symplectic_form(6)
    action = p.mul(knot.monodromy.action).mul(j.mul(p.transpose()).mul(j).neg())
    dense = FiberedKnot(Ambient.s3(), 6, SurfaceMonodromy(6, action))
    factors = {"trefoil_R": [1, -1, 1], "trefoil_L": [1, -1, 1], "figure8": [1, -3, 1]}
    expected = LaurentPoly(((0, 1),))
    for name in names:
        expected = laurent_product(expected, LaurentPoly.from_dict(dict(enumerate(factors[name]))))

    def refuse(a):
        raise AssertionError("alexander_poly ran the general char_poly")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fibcalc" and getattr(module, "char_poly", None) is char_poly:
            monkeypatch.setattr(module, "char_poly", refuse)
    assert alexander_poly(dense) == expected
