import random

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc.errors import CatalogError, MalformedInputError, MissingPayloadError
from fibcalc.laurent import normalize_alexander
from fibcalc.matrices import IntMatrix, char_poly
from fibcalc.mcg import (CurveSpec, HandlebodyMonodromy, SurfaceMonodromy,
                         boundary_connected_sum, catalog_names, cg_compatibility,
                         compose_monodromy, curated_payload, intersection,
                         is_symplectic, mirror, symplectic_form, transvection,
                         twist_monodromy)
from fibcalc.words import FreeGroupMap, abelianize
from oracles import laurent_product, matrix_power


def curve(name):
    return curated_payload(name)


def random_twist_monodromy(rng, genus, length):
    kinds = [f"g{genus}_{k}{i}" for k in "ab" for i in range(1, genus + 1)]
    word = [(curve(rng.choice(kinds)), rng.choice([-1, 1])) for _ in range(length)]
    return SurfaceMonodromy.from_twist_word(genus, word)


def test_transvection_examples():
    # genus 1, curve class a1: b1 -> b1 - a1
    assert transvection((1, 0)) == IntMatrix.from_rows([[1, -1], [0, 1]])
    # trivial class gives the identity
    assert transvection((0, 0)) == IntMatrix.identity(2)
    # curve class b1: a1 -> a1 + b1
    assert transvection((0, 1)) == IntMatrix.from_rows([[1, 0], [1, 1]])


def test_transvection_symplectic_random():
    rng = random.Random(2)
    j = symplectic_form(2)
    for _ in range(30):
        c = tuple(rng.randint(-3, 3) for _ in range(4))
        t = transvection(c)
        assert t.transpose().mul(j).mul(t) == j


def test_transvection_power_closed_form():
    rng = random.Random(8)
    for _ in range(20):
        c = tuple(rng.randint(-3, 3) for _ in range(4))
        m = rng.randint(-4, 4)
        assert transvection(c, m) == matrix_power(transvection(c), m)


@given(st.integers(0, 3).flatmap(lambda genus: st.tuples(
    st.just(genus),
    st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=2 * genus, max_size=2 * genus),
                       st.integers(-3, 3)), max_size=4),
    st.integers(-1, 1), st.integers(0, 63))))
@settings(max_examples=200)
def test_kernels_match_their_matrix_products(case):
    """transvection is I - m c c^T J, and is_symplectic tests A^T J A = J, on
    products of transvections with one entry possibly bumped by +-1."""
    genus, twists, bump, where = case
    n, j = 2 * genus, symplectic_form(genus)
    a = IntMatrix.identity(n)
    for c, m in twists:
        column = IntMatrix(n, 1, tuple((x,) for x in c))
        cctj = column.mul(column.transpose()).mul(j)
        expected = IntMatrix.from_rows([[(i == k) - m * x for k, x in enumerate(row)]
                                        for i, row in enumerate(cctj.entries)])
        assert transvection(c, m) == expected
        a = a.mul(expected)
    if n:
        rows = [list(row) for row in a.entries]
        rows[where % n][where // n % n] += bump
        a = IntMatrix.from_rows(rows)
    assert is_symplectic(a) == (a.transpose().mul(j).mul(a) == j)


def test_intersection_pairing():
    assert intersection((1, 0), (0, 1)) == 1
    assert intersection((0, 1), (1, 0)) == -1


def test_curve_spec_validation():
    with pytest.raises(MalformedInputError):
        CurveSpec(1, (1, 0, 0, 0))
    # bounds-disk flag forces the class into the Lagrangian
    with pytest.raises(MalformedInputError):
        CurveSpec(1, (1, 0), bounds_disk_in_handlebody=True)
    CurveSpec(1, (0, 1), bounds_disk_in_handlebody=True)
    # payload must abelianize to the transvection
    good = curve("g1_a1")
    with pytest.raises(MalformedInputError):
        CurveSpec(1, (0, 1), pi1_payload=good.pi1_payload)


def test_monodromy_symplectic_enforced():
    with pytest.raises(MalformedInputError):
        SurfaceMonodromy(1, IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_compose_monodromy_trefoil_model():
    tref = compose_monodromy(twist_monodromy(curve("g1_a1")), twist_monodromy(curve("g1_b1")))
    assert tref.action == IntMatrix.from_rows([[0, -1], [1, 1]])
    p = normalize_alexander(char_poly(tref.action))
    assert p.dense_coeffs() == [1, -1, 1]


def test_compose_with_identity_and_inverse():
    m = curated_payload("trefoil_R")
    ident = SurfaceMonodromy.identity(1)
    assert compose_monodromy(m, ident) == m
    tw = twist_monodromy(curve("g1_a1"))
    back = compose_monodromy(tw, twist_monodromy(curve("g1_a1"), -1))
    assert back == ident


def test_mirror_properties():
    assert mirror(SurfaceMonodromy.identity(2)) == SurfaceMonodromy.identity(2)
    m = curated_payload("trefoil_R")
    assert mirror(mirror(m)) == m
    # char polys agree after normalization (symplectic reciprocity)
    rng = random.Random(4)
    for _ in range(15):
        w = random_twist_monodromy(rng, 2, rng.randint(1, 6))
        lhs = normalize_alexander(char_poly(mirror(w).action))
        rhs = normalize_alexander(char_poly(w.action))
        assert lhs == rhs


def test_mirror_requires_witness():
    payload = FreeGroupMap.from_letters(2, [[1], [2]])
    m = SurfaceMonodromy(1, IntMatrix.identity(2), payload)
    with pytest.raises(MissingPayloadError):
        mirror(m)


def test_boundary_connected_sum():
    tref = curated_payload("trefoil_R")
    assert boundary_connected_sum(tref, SurfaceMonodromy.identity(0)) == tref
    sq = curated_payload("square_knot")
    assert sq.genus == 2
    assert char_poly(sq.action) == laurent_product(char_poly(tref.action),
                                                   char_poly(mirror(tref).action))
    got = normalize_alexander(char_poly(sq.action))
    assert got.dense_coeffs() == [1, -2, 3, -2, 1]


def test_bcs_pi1_blocks():
    sq = curated_payload("square_knot")
    tref = curated_payload("trefoil_R")
    assert sq.pi1_action is not None
    assert abelianize(sq.pi1_action) == sq.action
    # first block acts as the trefoil
    for i in range(2):
        assert sq.pi1_action.images[i] == tref.pi1_action.images[i].shift(4, 0)


def test_cg_compatibility_examples():
    ident = IntMatrix.identity(2)
    assert cg_compatibility(ident, IntMatrix.identity(1)).ok
    # transvection along b1 preserves span{b1} and induces the identity
    s = IntMatrix.from_rows([[1, 0], [1, 1]])
    assert cg_compatibility(s, IntMatrix.identity(1)).ok
    # transvection along a1 moves b1 out of the Lagrangian
    s_bad = IntMatrix.from_rows([[1, -1], [0, 1]])
    report = cg_compatibility(s_bad, IntMatrix.identity(1))
    assert not report.ok and report.failures


def test_cg_compatibility_rejects_nonsymplectic():
    with pytest.raises(MalformedInputError):
        cg_compatibility(IntMatrix.from_rows([[2, 0], [0, 2]]), IntMatrix.identity(1))


def test_handlebody_monodromy_invariants():
    # quotient action must match the handlebody pi1 abelianization
    payload = FreeGroupMap.identity(1)
    good = HandlebodyMonodromy(1, payload, SurfaceMonodromy.identity(1))
    assert good.genus == 1
    tw = twist_monodromy(curve("g1_a1"))
    with pytest.raises(MalformedInputError):
        HandlebodyMonodromy(1, payload, tw)


def test_catalog_contents():
    names = catalog_names()
    assert "trefoil_R" in names and "square_knot_stallings_c1" in names
    with pytest.raises(CatalogError):
        curated_payload("no_such_entry")
    tref = curated_payload("trefoil_R")
    assert normalize_alexander(char_poly(tref.action)).dense_coeffs() == [1, -1, 1]
    fig8 = curated_payload("figure8")
    assert normalize_alexander(char_poly(fig8.action)).dense_coeffs() == [1, -3, 1]


def test_catalog_monodromies_are_symplectic_with_consistent_payloads():
    for name in catalog_names():
        entry = curated_payload(name)
        if isinstance(entry, SurfaceMonodromy):
            assert is_symplectic(entry.action)
            if entry.pi1_action is not None:
                assert abelianize(entry.pi1_action) == entry.action
        else:
            if entry.pi1_payload is not None:
                assert abelianize(entry.pi1_payload) == transvection(entry)


def test_stallings_curves_lie_in_lagrangian_with_both_signs():
    c1 = curated_payload("square_knot_stallings_c1")
    c1n = curated_payload("square_knot_stallings_c1_neg")
    assert c1.homology_class == (0, 1, 0, 0)
    assert c1n.homology_class == (0, -1, 0, 0)
    # opposite orientations give the same twist
    assert transvection(c1) == transvection(c1n)
    c2 = curated_payload("square_knot_stallings_c2")
    assert c2.homology_class == (0, 0, 0, -1)
    for c in (c1, c1n, c2):
        assert c.bounds_disk_in_handlebody and c.fiber_framing_zero


def test_random_compositions_stay_symplectic():
    rng = random.Random(19)
    for _ in range(25):
        g = rng.choice([1, 2])
        m = random_twist_monodromy(rng, g, rng.randint(0, 7))
        assert is_symplectic(m.action)
        assert abelianize(m.pi1_action) == m.action


def test_provenance_cancellation():
    a1 = curve("g1_a1")
    m = SurfaceMonodromy.from_twist_word(1, [(a1, 1), (a1, -1)])
    assert m == SurfaceMonodromy.identity(1)
    assert m.provenance == ()


def test_compose_monodromy_genus_mismatch():
    with pytest.raises(Exception):
        compose_monodromy(SurfaceMonodromy.identity(1), SurfaceMonodromy.identity(2))
