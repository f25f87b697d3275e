"""Hom counts into split groups A ⋊ <c> (S3, D4, A4): the Fox route of
`count_homs` against the search `_completed_search` and the brute-force
oracle, on random presentations, on report presentations, on relabelled
group tables and on sums of trefoils; and the fiber rows of
`_mapping_torus_invariants` against the presentation route."""

import random
from itertools import combinations_with_replacement
from math import gcd, lcm, prod
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from fibcalc import invariants
from fibcalc.fibered import catalog_knot, connected_sum, knot_group, stallings_twist
from fibcalc.invariants import (HOM_NODE_BUDGET, FiniteGroupTable, _completed_search,
                                _kernel_diagonal, _mapping_torus_invariants, _perm_group,
                                count_homs, finite_group, h1)
from fibcalc.matrices import IntMatrix, _smith, char_poly
from fibcalc.mcg import SurfaceMonodromy, curated_payload
from fibcalc.presentation import GroupPresentation, hnn_presentation
from fibcalc.ribbon_disk import boundary_knot, disk_twist, exterior_presentation, half_spin
from fibcalc.script import REPORT_GROUPS, _alexander
from fibcalc.two_knot import double_disk, gluck, spin, two_knot_group
from fibcalc.words import abelianize, handlebody_names
from oracles import presentation_invariants
from test_invariants import (CATALOG_KNOTS, _presentation, _report_presentations,
                             brute_force_count, letters)

SPLIT_GROUPS = ("S3", "D4", "A4")
# The largest rank per group that keeps the brute-force oracle fast.
_ORACLE_RANK = {"S3": 4, "D4": 3, "A4": 3}


def _search(p, group):
    return _completed_search(p, group, HOM_NODE_BUDGET)


def test_split_is_read_off_the_table():
    assert finite_group("S3").split == (3, 2, ((-1,),))
    assert finite_group("D4").split == (4, 2, ((-1,),))  # Z4 x| Z2, not the Klein four
    a, k, m = finite_group("A4").split
    assert (a, k, len(m)) == (2, 3, 2)
    square = [[sum(x * y for x, y in zip(row, col)) % 2 for col in zip(*m)] for row in m]
    cube = [[sum(x * y for x, y in zip(row, col)) % 2 for col in zip(*m)] for row in square]
    assert square != [[1, 0], [0, 1]] and cube == [[1, 0], [0, 1]]  # c acts with order 3
    assert finite_group("S4").split is None


def _generated(label, *generators):
    elements, frontier = {generators[0]}, list(generators)
    while frontier:
        p = frontier.pop()
        for q in generators:
            r = tuple(p[i] for i in q)
            if r not in elements:
                elements.add(r)
                frontier.append(r)
    return _perm_group(label, list(elements))


def test_groups_without_a_split_keep_the_search():
    # Q8 in its regular representation: non-abelian of order 8, one involution
    q8 = _generated("Q8", (1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3))
    assert q8.order == 8 and not q8.is_abelian
    assert q8.element_orders.count(2) == 1
    assert q8.split is None
    for p in (knot_group(catalog_knot("trefoil_R")), knot_group(catalog_knot("figure8")),
              _presentation(("x", "y"), (1, 1, 2, 2), (1, 2, -1, 2))):
        assert count_homs(p, q8) == brute_force_count(p, q8)


def test_other_split_groups_match_the_search():
    """Groups the catalog does not hold: the dihedral group of order 12
    (Z6 x| Z2), the Frobenius group of order 21 (Z7 x| Z3) and the
    generalized dihedral group of Z3 x Z3 (M = -I, two by two)."""
    groups = [_generated("D6", (1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)),
              _generated("F21", (1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)),
              _generated("GD9", (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (0, 2, 1, 3, 5, 4))]
    assert [g.split for g in groups] == [(6, 2, ((-1,),)), (7, 3, ((2,),)),
                                         (3, 2, ((-1, 0), (0, -1)))]
    for p in (knot_group(catalog_knot("trefoil_R")), knot_group(catalog_knot("figure8")),
              two_knot_group(spin(catalog_knot("square_knot")))):
        for g in groups:
            assert count_homs(p, g) == _search(p, g)


@st.composite
def _torsion_presentations(draw, rank):
    """Presentations of rank 1..rank with at most that many random relators,
    so that H1 often has free summands, plus up to two powers x_i^p, which
    put p-torsion into H1 unless another relator kills it."""
    n = draw(st.integers(1, rank))
    names = [f"x{i}" for i in range(1, n + 1)]
    if draw(st.booleans()):
        names[draw(st.integers(0, n - 1))] = "t"
    relators = [tuple(r) for r in draw(st.lists(letters(n, max_len=8), max_size=n))]
    powers = draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from((2, 3, 4, 6))),
                           max_size=2))
    return _presentation(tuple(names), *relators, *((i,) * p for i, p in powers))


# H1 = Z/2 + Z (four homs to Z2), Z/6, Z/3 + Z^2 (nine homs to Z3), Z/4 + Z/2
_H1_SHAPES = {
    "Z2+Z": (_presentation(("x", "y"), (1, 1), (1, 2, -1, -2)), [2, 0]),
    "Z6": (_presentation(("x",), (1,) * 6), [6]),
    "Z3+Z^2": (_presentation(("x", "y", "t"), (1, 1, 1), (2, 3, -2, -3)), [3, 0, 0]),
    "Z4+Z2": (_presentation(("x", "y"), (1,) * 4, (2, 2), (1, 2, -1, -2)), [2, 4]),
}


@pytest.mark.parametrize("group_name", SPLIT_GROUPS)
@pytest.mark.parametrize("presentation, diagonal", _H1_SHAPES.values(), ids=_H1_SHAPES.keys())
def test_fox_route_with_torsion_and_free_summands(presentation, diagonal, group_name):
    assert h1(presentation) == diagonal
    g = finite_group(group_name)
    expected = brute_force_count(presentation, g)
    assert count_homs(presentation, g) == expected
    assert _search(presentation, g) == expected


@given(st.sampled_from(SPLIT_GROUPS).flatmap(
    lambda name: st.tuples(st.just(name), _torsion_presentations(_ORACLE_RANK[name]))))
@settings(max_examples=150, deadline=None)
@example(("S3", _H1_SHAPES["Z2+Z"][0]))
@example(("A4", _H1_SHAPES["Z3+Z^2"][0]))
def test_fox_route_matches_search_and_brute_force(case):
    group_name, presentation = case
    g = finite_group(group_name)
    expected = brute_force_count(presentation, g)
    assert count_homs(presentation, g) == expected
    assert _search(presentation, g) == expected


def _script_presentations():
    """Presentations like those a script reports: sums of two genus-1 knots
    with their spins and Gluck twists, Stallings twists of the square knot
    and doubles of twisted half-spin disks."""
    genus1 = ("trefoil_R", "trefoil_L", "figure8")
    for a in genus1:
        for b in genus1:
            knot = connected_sum(catalog_knot(a), catalog_knot(b))
            yield knot_group(knot)
            yield two_knot_group(gluck(spin(knot)))
    for c, m in (("c1", -1), ("c1_neg", 1), ("c2", 16), ("c2_neg", -1)):
        yield knot_group(stallings_twist(catalog_knot("square_knot"),
                                         curated_payload(f"square_knot_stallings_{c}"), m))
    for name, c, m in (("trefoil_R", "c1", 1), ("figure8", "c2_neg", -1), ("trefoil_L", "c2", 17)):
        disk = disk_twist(half_spin(catalog_knot(name)),
                          curated_payload(f"square_knot_stallings_{c}"), m)
        yield exterior_presentation(disk)
        yield two_knot_group(double_disk(disk, 2))


def test_fox_route_matches_search_on_report_presentations():
    for p in (*_report_presentations(), *_script_presentations()):
        for name in SPLIT_GROUPS:
            g = finite_group(name)
            assert count_homs(p, g) == _search(p, g), (p.generators, name)


def _relabelled(group, seed):
    """The same group with its elements listed in a random order: new
    element x is old element old[x]."""
    old = list(range(group.order))
    random.Random(seed).shuffle(old)
    new = {o: x for x, o in enumerate(old)}
    table = tuple(tuple(new[group.table[old[x]][old[y]]] for y in range(group.order))
                  for x in range(group.order))
    return FiniteGroupTable(group.label + "'", group.order, table,
                            tuple(group.names[o] for o in old))


@pytest.mark.parametrize("group_name", SPLIT_GROUPS)
def test_relabelled_groups_give_identical_counts(group_name):
    g = finite_group(group_name)
    presentations = [knot_group(catalog_knot(name))
                     for name in ("trefoil_R", "figure8", "square_knot", "granny_knot")]
    presentations.append(_H1_SHAPES["Z2+Z"][0])
    for seed in range(4):
        copy = _relabelled(g, seed)
        assert copy.table != g.table
        assert copy.split is not None and copy.split[:2] == g.split[:2]
        for p in presentations:
            assert count_homs(p, copy) == count_homs(p, g)


def _trefoil_sum(genus):
    knot = catalog_knot("trefoil_R")
    for _ in range(genus - 1):
        knot = connected_sum(knot, catalog_knot("trefoil_R"))
    return knot_group(knot)


@pytest.mark.parametrize("genus", range(1, 11))
def test_trefoil_sums_into_a4(genus):
    """2^(2g+3) + 4 homs; the search, whose work grows with the count, runs
    up to genus 4 (at genus 10 it takes seconds)."""
    p, a4 = _trefoil_sum(genus), finite_group("A4")
    assert count_homs(p, a4) == 2 ** (2 * genus + 3) + 4
    if genus <= 4:
        assert _search(p, a4) == 2 ** (2 * genus + 3) + 4


def test_trefoil_sum_of_genus_10_into_a4_is_fast():
    p, a4 = _trefoil_sum(10), finite_group("A4")
    best = float("inf")
    for _ in range(3):
        fresh = GroupPresentation(p.generators, p.relators)  # with an empty memo
        start = perf_counter()
        assert count_homs(fresh, a4) == 8_388_612
        best = min(best, perf_counter() - start)
    assert best < 0.05


def _twisted_count(curve_name: str, m: int, group) -> int:
    knot = stallings_twist(boundary_knot(half_spin(catalog_knot("trefoil_R"))),
                           curated_payload(curve_name), m)
    return count_homs(knot_group(knot), group)


@given(st.sampled_from(["square_knot_stallings_c1", "square_knot_stallings_c2"]),
       st.sampled_from(["Z5", "S3", "D4", "A4", "S4"]), st.integers(-40, 40))
@example("square_knot_stallings_c1", "S4", 40)
@settings(max_examples=30, deadline=None)
def test_twist_counts_are_periodic_in_the_exponent(curve_name, group_name, m):
    """On the fiber the catalog Stallings curves were drawn on, twisting m
    times along c is the ±1/m filling of the exterior of K and c, which kills
    μ_c λ_c^(±m).  So the count is that of the homs of the link group with
    μ_c -> λ_c^(∓m), and λ_c's image has an order dividing the exponent of
    G: the count has period exponent(G) in m."""
    group = finite_group(group_name)
    period = lcm(*group.element_orders)
    assert _twisted_count(curve_name, m, group) == _twisted_count(curve_name, m + period, group)


@pytest.mark.parametrize("curve_name", ["square_knot_stallings_c1", "square_knot_stallings_c2"])
def test_twist_counts_at_forty(curve_name):
    assert _twisted_count(curve_name, 40, finite_group("A4")) == 132
    assert _twisted_count(curve_name, 40, finite_group("S4")) == 240


# --------------------------------------------------------------------------
# Fiber rows from the homology action against the presentation route
# --------------------------------------------------------------------------

def _twist_curves(genus):
    """The catalog's standard curves of a genus (the Stallings curves too at
    genus 2), and at genus 3 those of genus 1 and 2 moved to every handle."""
    if genus == 3:
        return tuple(c.extend(3, offset) for c in _twist_curves(1) + _twist_curves(2)
                     for offset in range(4 - c.genus))
    names = [f"g{genus}_{k}{i}" for k in "ab" for i in range(1, genus + 1)]
    if genus == 2:
        names += [f"square_knot_stallings_c{i}" for i in (1, 2)]
    return tuple(map(curated_payload, names))


_EXPONENTS = st.integers(1, 5).flatmap(lambda e: st.sampled_from((e, -e)))


@st.composite
def _twist_products(draw, odd):
    """The pi1 action of a product of catalog twist payloads.  Most have an
    even Δ(1), so with `odd` the word is drawn again, up to 20 times, until
    Δ(1) is odd and the homology route applies."""
    for _ in range(20):
        genus = draw(st.integers(1, 3))
        word = draw(st.lists(st.tuples(st.sampled_from(_twist_curves(genus)), _EXPONENTS),
                             min_size=1, max_size=5))
        f = SurfaceMonodromy.from_twist_word(genus, word).pi1_action
        if not odd or char_poly(abelianize(f)).evaluate(1) % 2:
            break
    return f


def _sum_of(names):
    knot = catalog_knot(names[0])
    for name in names[1:]:
        knot = connected_sum(knot, catalog_knot(name))
    return knot


# Sums of 4-6 genus-1 knots: figure-8 sums have Δ(-1) = 5^k, which the
# determinant rule settles for S3 and D4; trefoil sums have Δ(-1) = 3^k,
# 9 | Δ(-1), so S3 falls back to the Smith form of -I - Aᵀ.
_LONG_SUMS = tuple((name,) * k for name in ("figure8", "trefoil_R") for k in (4, 5, 6)) + \
    (("trefoil_R", "trefoil_L", "figure8", "figure8"),
     ("figure8", "trefoil_L", "figure8", "trefoil_R", "figure8", "trefoil_L"))


def _witnessed_fiber_maps():
    """Fiber maps like a script's rows: catalog sums, sums of 4-6 genus-1
    knots, half-spin and disk-twist handlebody maps, and Stallings twists
    of the square knot."""
    for a, b in combinations_with_replacement(CATALOG_KNOTS, 2):
        yield connected_sum(catalog_knot(a), catalog_knot(b)).monodromy.pi1_action
    for names in _LONG_SUMS:
        yield _sum_of(names).monodromy.pi1_action
    for name in ("trefoil_R", "trefoil_L", "figure8"):
        disk = half_spin(catalog_knot(name))
        yield disk.monodromy.pi1_action
        for c, m in (("c1", 1), ("c2_neg", -2), ("c2", 17)):
            yield disk_twist(disk, curated_payload(f"square_knot_stallings_{c}"),
                             m).monodromy.pi1_action
    square = catalog_knot("square_knot")
    for c in ("c1", "c1_neg", "c2", "c2_neg"):
        for m in (-1, 1, 2, 16, 40):
            yield stallings_twist(square, curated_payload(f"square_knot_stallings_{c}"),
                                  m).monodromy.pi1_action


# The groups of every fiber-route check: the report groups and A4, whose
# k = 3 sends a row with 3 | Δ(1) to the presentation; S4, which does not
# split, always goes there, and its search is checked on the witnessed maps.
_ROUTE_GROUPS = REPORT_GROUPS + ("A4",)


def check_fiber_route(f, names=_ROUTE_GROUPS) -> bool:
    """The row of `_mapping_torus_invariants` for the groups `names` against
    H1 and the counts of the HNN presentation; True if Δ(1) is odd, so that
    the report groups take the homology route."""
    action = abelianize(f)
    chi = char_poly(action)
    delta = sum(_alexander(chi))
    assert abs(delta) == abs(IntMatrix.from_rows(
        [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(action.entries)]).det())
    factors, counts = _mapping_torus_invariants(f, action, chi, tuple(map(finite_group, names)))
    assert (factors, tuple(zip(names, counts))) == \
        presentation_invariants(hnn_presentation(f, handlebody_names(f.rank)), names)
    return delta % 2 == 1


@given(st.booleans().flatmap(_twist_products))
@settings(max_examples=60, deadline=None)
def test_fiber_route_matches_the_presentation_route_on_twist_products(f):
    check_fiber_route(f)


def test_fiber_route_matches_the_presentation_route_on_witnessed_maps():
    odd = [check_fiber_route(f, _ROUTE_GROUPS + ("S4",)) for f in _witnessed_fiber_maps()]
    assert any(odd) and not all(odd)  # both routes are exercised


def test_fiber_route_of_the_trivial_fiber():
    """The unknot's fiber is a disk: the group is Z, with 6 homs to S3."""
    f = catalog_knot("unknot").monodromy.pi1_action
    assert f.rank == 0 and check_fiber_route(f, _ROUTE_GROUPS + ("S4",))
    action = abelianize(f)
    assert _mapping_torus_invariants(f, action, char_poly(action), (finite_group("S3"),)) == \
        ((0,), (6,))


def _square_twist(m):
    """The fiber map of the catalog square knot twisted m times along c1,
    which is not of fiber framing zero in that basis: H1 is Z + Z/|m + 1|."""
    return stallings_twist(catalog_knot("square_knot"),
                           curated_payload("square_knot_stallings_c1"), m).monodromy.pi1_action


@pytest.mark.parametrize("m, names, built", [
    (None, REPORT_GROUPS, 0), (None, ("A4", "S4"), 1), (2, ("S3", "Z5"), 0),
    (2, ("S3", "A4"), 1), (1, ("Z2", "A4"), 0), (1, REPORT_GROUPS, 1),
    (1, _ROUTE_GROUPS + ("S4",), 1)])
def test_fiber_route_builds_one_presentation_only_when_asked(m, names, built, monkeypatch):
    """The HNN presentation is built at most once per call, and only for a
    target that does not split (S4) or whose k shares a factor with Δ(1):
    Δ(1) = ±3 at m = 2 sends A4 there, ±2 at m = 1 sends S3 and D4.  The
    figure-8 fiber map (m = None) has Δ(1) = -1."""
    f = catalog_knot("figure8").monodromy.pi1_action if m is None else _square_twist(m)
    calls, hnn = [], invariants.hnn_presentation
    monkeypatch.setattr(invariants, "hnn_presentation", lambda *a: calls.append(a) or hnn(*a))
    action = abelianize(f)
    chi = char_poly(action)
    assert abs(chi.evaluate(1)) == {None: 1, 1: 2, 2: 3}[m]
    _mapping_torus_invariants(f, action, chi, tuple(map(finite_group, names)))
    assert len(calls) == built
    monkeypatch.undo()
    check_fiber_route(f, names)


ORACLE_MODULI = (2, 3, 4, 5, 8, 9, 12)


def _prime_factors(a):
    return [p for p in range(2, a + 1) if a % p == 0 and all(p % q for q in range(2, p))]


def check_kernel_rule(block, det=None):
    """`_kernel_diagonal` on a square block against its Smith diagonal, for
    each modulus a in ORACLE_MODULI: the same kernel order ∏ gcd(d_i, a), and
    a Smith form asked for exactly when det = 0 or p² | det for a prime p | a.
    Returns the determinant, `det` or Bareiss's."""
    n = len(block)
    if det is None:
        det = IntMatrix.from_rows(block).det()
    d = _smith([list(row) for row in block], n, False)[0]
    diagonal = tuple(d[i][i] for i in range(n))
    assert abs(prod(diagonal)) == abs(det)
    for a in ORACLE_MODULI:
        asked = []
        found = _kernel_diagonal(det, a, lambda: asked.append(a) or diagonal)
        assert prod(gcd(x, a) for x in found) == prod(gcd(x, a) for x in diagonal)
        assert bool(asked) == (det == 0 or any(det % (p * p) == 0 for p in _prime_factors(a)))
    return det


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_kernel_rule_matches_the_smith_form_on_random_blocks(block):
    check_kernel_rule(block)


# Blocks whose determinant is 0, ±1, squarefree, or divisible by 9 or 4;
# each pair with one determinant differs in its Smith form: (3, 3) and
# (1, 9), (2, 2) and (1, 4), so only those the rule declines can share it.
_KERNEL_BLOCKS = {
    "det 0": ([[1, 2], [2, 4]], 0),
    "det 0, zero row": ([[1, 2, 3], [0, 0, 0], [4, 5, 7]], 0),
    "det 0, 1 x 1": ([[0]], 0),
    "det 1": ([[2, 1], [1, 1]], 1),
    "det -1": ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),
    "det 30": ([[30]], 30),
    "det 15": ([[2, 1], [1, 8]], 15),
    "det -105": ([[3, 1, 0], [0, 5, 1], [0, 0, -7]], -105),
    "det 9, Smith (3, 3)": ([[6, 3], [3, 3]], 9),
    "det 9, Smith (1, 9)": ([[10, 9], [9, 9]], 9),
    "det 81": ([[3, 1, 0], [0, 3, 1], [0, 0, 9]], 81),
    "det 4, Smith (2, 2)": ([[4, 2], [2, 2]], 4),
    "det 4, Smith (1, 4)": ([[5, 4], [4, 4]], 4),
    "det 12": ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], 12),
    "det 36": ([[6, 0], [0, 6]], 36),
}


@pytest.mark.parametrize("block, det", _KERNEL_BLOCKS.values(), ids=_KERNEL_BLOCKS.keys())
def test_kernel_rule_on_constructed_blocks(block, det):
    assert check_kernel_rule(block) == det


@pytest.mark.parametrize("mu", (-1, 2))
def test_kernel_rule_on_the_blocks_of_fiber_maps(mu):
    """The blocks μI - Aᵀ of the witnessed fiber maps, among them every
    catalog sum, with det = χ(μ) as `_mapping_torus_invariants` reads it."""
    for f in _witnessed_fiber_maps():
        action = abelianize(f)
        block = [[mu * (i == j) - x for j, x in enumerate(column)]
                 for i, column in enumerate(zip(*action.entries))]
        assert check_kernel_rule(block, char_poly(action).evaluate(mu)) == \
            IntMatrix.from_rows(block).det()
