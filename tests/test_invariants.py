import random
import sys
from itertools import product
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fibcalc import invariants, matrices
from fibcalc.errors import (AbelianizationError, BudgetExceededError, CatalogError,
                            MalformedInputError)
from fibcalc.fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot, connected_sum,
                             knot_group)
from fibcalc.invariants import (HOM_NODE_BUDGET, FiniteGroupTable, _completed_search,
                                alexander_from_presentation, count_homs, finite_group,
                                fox_matrix, group_catalog_names, h1, infinite_cyclic_exponents)
from fibcalc.laurent import LaurentPoly, normalize_alexander
from fibcalc.matrices import IntMatrix, char_poly, smith_normal_form
from fibcalc.mcg import SurfaceMonodromy, symplectic_form, transvection
from fibcalc.presentation import GroupPresentation, hnn_presentation
from fibcalc.ribbon_disk import exterior_presentation, half_spin
from fibcalc.two_knot import double_disk, halving_family, spin, two_knot_group
from fibcalc.words import (FreeGroupMap, FreeWord, abelianize, compose, handlebody_names,
                           surface_names)
from oracles import (alexander_by_grid, fox_derivatives, fox_formula_gap, fox_row,
                     laurent_product, smith_elimination, trefoil_two_bridge_presentation)


def ring_to_laurent(element, exponents):
    """Abelianize a group-ring element {word: coefficient}: each word becomes
    t^(e . its exponent vector).  The oracle of `fox_row`, the `_fox_columns`
    pass that abelianizes every Fox derivative of a word at once."""
    acc = {}
    for word, coeff in element.items():
        e = sum(x * v for x, v in zip(exponents, word.exponent_vector()))
        acc[e] = acc.get(e, 0) + coeff
    return LaurentPoly.from_dict(acc)


def test_fox_derivative_examples():
    assert fox_derivatives(FreeWord(2, (1,))) == [{FreeWord(2, ()): 1}, {}]
    assert fox_derivatives(FreeWord(2, ())) == [{}, {}]
    # d(x1 x2 x1^-1)/dx1 = 1 - x1 x2 x1^-1
    w = FreeWord(2, (1, 2, -1))
    assert fox_derivatives(w)[0] == {FreeWord(2, ()): 1, w: -1}
    # d(x1^-1)/dx1 = -x1^-1
    assert fox_derivatives(FreeWord(2, (-1,)))[0] == {FreeWord(2, (-1,)): -1}
    assert fox_matrix(GroupPresentation(("x1", "x2"), ())) == []


def letters(rank, max_len=10):
    nonzero = st.integers(-rank, rank).filter(lambda x: x != 0)
    return st.lists(nonzero, max_size=max_len)


@given(letters(3))
@settings(max_examples=120)
def test_fox_fundamental_identity(seq):
    # sum_j dw/dx_j (x_j - 1) = w - 1 in the group ring
    w = FreeWord(3, tuple(seq))
    assert fox_formula_gap(w, fox_derivatives(w)) == {}


@given(letters(3, max_len=30), st.tuples(*[st.integers(-3, 3)] * 3))
@settings(max_examples=150)
def test_fox_row_matches_fox_derivative(seq, exponents):
    w = FreeWord(3, tuple(seq))
    assert fox_row(w, exponents) == \
        [ring_to_laurent(d, exponents) for d in fox_derivatives(w)]


@st.composite
def presentations_with_h1_z(draw):
    """<x_1, ..., x_n | r_1, ..., r_m> with H1 = Z: r_i (i < n) is a
    conjugate of x_i c_i, c_i a word in x_(i+1), ..., x_n, so the relation
    matrix is unitriangular off the last column; the other relators are
    conjugates of commutators, which abelianize to 0.  The relators come
    shuffled."""
    n = draw(st.integers(1, 4))

    def word(low):  # a word in x_low, ..., x_n
        letter = st.integers(low, n).flatmap(lambda i: st.sampled_from([i, -i]))
        return st.lists(letter, max_size=5).map(lambda seq: FreeWord(n, seq))

    relators = []
    for i in range(1, n):
        u, c = draw(word(1)), draw(word(i + 1))
        relators.append(u * FreeWord(n, (i,)) * c * u.inverse())
    for _ in range(draw(st.integers(0, 2))):
        u, a, b = draw(word(1)), draw(word(1)), draw(word(1))
        relators.append(u * a * b * a.inverse() * b.inverse() * u.inverse())
    return GroupPresentation(handlebody_names(n), tuple(draw(st.permutations(relators))))


@given(presentations_with_h1_z())
@settings(max_examples=80, deadline=None)
def test_fox_matrix_rows_satisfy_the_formula_and_abelianize_to_fox_row(presentation):
    """Every row of `fox_matrix` on a multi-relator presentation satisfies
    Fox's fundamental formula, and abelianized at `infinite_cyclic_exponents`
    it is the `_fox_columns` pass over the same relator: the two Fox
    calculi of the library agree on whole presentations."""
    assert h1(presentation) == [0]
    exps = infinite_cyclic_exponents(presentation)
    rows = fox_matrix(presentation)
    assert len(rows) == len(presentation.relators)
    for relator, row in zip(presentation.relators, rows):
        assert len(row) == presentation.n_generators
        assert all(c in (1, -1) for entry in row for c in entry.values())
        assert fox_formula_gap(relator, row) == {}
        assert [ring_to_laurent(entry, exps) for entry in row] == fox_row(relator, exps)


def test_infinite_cyclic_exponents():
    p = knot_group(catalog_knot("trefoil_R"))
    exps = infinite_cyclic_exponents(p)
    # fiber generators die, the stable letter carries the cycle
    assert tuple(abs(e) for e in exps) == (0, 0, 1)
    with pytest.raises(AbelianizationError):
        infinite_cyclic_exponents(GroupPresentation(("x",), (FreeWord(1, (1, 1)),)))


def test_alexander_from_presentation_examples():
    assert alexander_from_presentation(GroupPresentation(("t",), ())) == LaurentPoly(((0, 1),))
    # a presentation of Z whose one relator is the empty word
    z = GroupPresentation(("t",), (FreeWord(1, ()),))
    assert h1(z) == [0]
    assert alexander_from_presentation(z) == LaurentPoly(((0, 1),))
    p = knot_group(catalog_knot("trefoil_R"))
    assert alexander_from_presentation(p).dense_coeffs() == [1, -1, 1]
    assert alexander_from_presentation(trefoil_two_bridge_presentation()) \
        .dense_coeffs() == [1, -1, 1]


def _torus_knot_polynomial(p: int, q: int) -> list[int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by exact long division."""
    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def binomial(n):  # t^n - 1
        return [-1] + [0] * (n - 1) + [1]

    rest, divisor = times(binomial(p * q), binomial(1)), times(binomial(p), binomial(q))
    quotient = [0] * (len(rest) - len(divisor) + 1)
    for i in reversed(range(len(quotient))):  # the divisor is monic
        quotient[i] = c = rest[i + len(divisor) - 1]
        for j, d in enumerate(divisor):
            rest[i + j] -= c * d
    assert not any(rest)
    return quotient


@pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (5, 7), (7, 11)])
def test_alexander_of_torus_knot_presentations(p, q):
    """<x, y, t | x^p y^-q, t^-1 x^a y^b> with aq + bp = 1 presents the
    torus knot T(p, q) with meridian t; x -> t^q and y -> t^p, so the Fox
    walk spans pq + 1 exponents."""
    a = pow(q, -1, p)
    b = (1 - a * q) // p  # negative, as 0 < a < p
    presentation = _presentation(("x", "y", "t"), (1,) * p + (-2,) * q,
                                 (-3,) + (1,) * a + (-2,) * -b)
    assert h1(presentation) == [0]
    expected = _torus_knot_polynomial(p, q)
    assert len(expected) == (p - 1) * (q - 1) + 1
    assert alexander_from_presentation(presentation).dense_coeffs() == expected


def test_alexander_redundant_relator_same_gcd():
    p = trefoil_two_bridge_presentation()
    rel = p.relators[0]
    fat = GroupPresentation(p.generators, (rel, rel.inverse(), rel * rel))
    assert alexander_from_presentation(fat) == alexander_from_presentation(p)


def test_hnn_fox_matrix_abelianizes_to_tI_minus_A():
    # entry (i, j) of the abelianized Fox matrix is t*delta_ij - A_ji
    from fibcalc.words import abelianize
    k = catalog_knot("figure8")
    f = k.monodromy.pi1_action
    a = abelianize(f)
    p = hnn_presentation(f, ("a1", "b1"))
    exps = infinite_cyclic_exponents(p)
    m = fox_matrix(p)
    for i in range(2):
        for j in range(2):
            got = ring_to_laurent(m[i][j], exps)
            expected = LaurentPoly.from_dict({1: 1 if i == j else 0, 0: -a.entries[j][i]})
            assert got == expected


def _fox_route(presentation, exponents):
    """`alexander_from_presentation` with `infinite_cyclic_exponents`
    answering `exponents`: the Fox route on a presentation whose H1 is not
    Z, such as a mapping torus with torsion."""
    with mock.patch.object(invariants, "infinite_cyclic_exponents", lambda p: exponents):
        return alexander_from_presentation(presentation)


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc)


@st.composite
def fox_presentations(draw):
    """(presentation, assignment or None) with 2-4 generators and n - 2 to
    n + 1 relators, so fewer, as many and more relators than the n - 1
    columns.  Generators go to t^e for e in -3..3 and one of them, the
    meridian, to t^(+-1), so lowest exponents are often negative.  A relator
    is a random word with meridian letters appended until the assignment
    kills it, a commutator of two such words (a zero row: its Fox
    derivatives abelianize to 0), or empty."""
    n = draw(st.integers(2, 4))
    letters = st.lists(st.integers(-n, n).filter(bool), max_size=8)
    exps = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -2, 3, -3)), min_size=n, max_size=n))
    meridian = draw(st.integers(0, n - 1))
    exps[meridian] = draw(st.sampled_from((1, -1)))

    def killed(word):
        total = sum(exps[abs(x) - 1] * (1 if x > 0 else -1) for x in word)
        return word + [-(meridian + 1) * exps[meridian] * (1 if total > 0 else -1)] * abs(total)

    relators = []
    for _ in range(draw(st.integers(n - 2, n + 1))):
        kind = draw(st.sampled_from(("word",) * 6 + ("zero row", "empty")))
        if kind == "word":
            word = killed(draw(letters) + draw(letters))
        elif kind == "zero row":
            u, v = killed(draw(letters)), killed(draw(letters))
            word = u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]
        else:
            word = []
        relators.append(FreeWord(n, tuple(word)))
    presentation = GroupPresentation(("a", "b", "c", "d")[:n], tuple(relators))
    return presentation, draw(st.sampled_from((tuple(exps), None)))


def _inverse(word):
    return tuple(-x for x in reversed(word))


_TREFOIL = (1, 2, 1, -2, -1, -2)  # u v u = v u v
_LONG = (1, 3, -2, 1, 1, -3, 2, 2) * 4


@given(fox_presentations())
@example((GroupPresentation(("a", "b"), (FreeWord(2, (1, -2, -1, 2, 2, -1, -2, 1)),)), (1, 1)))
@example((GroupPresentation(("t",), (FreeWord(1, ()),)), None))
@example((GroupPresentation(("t",), (FreeWord(1, ()),)), (1,)))
@example((GroupPresentation(("u", "v", "c"), (FreeWord(3, _TREFOIL), FreeWord(3, (3, 1, 1)))),
          (1, 1, -2)))
@example((GroupPresentation(("u", "v", "t"), (
    FreeWord(3, _TREFOIL), FreeWord(3, (3, -1)),
    FreeWord(3, _LONG + _TREFOIL + _inverse(_LONG) + _inverse(_TREFOIL)))), (1, 1, 1)))
@settings(max_examples=300, deadline=None)
def test_alexander_from_presentation_matches_the_grid_oracle(case):
    # The first example cancels a term below the lowest exponent left in its
    # row; the next two present Z with an empty relator.  In the fourth,
    # c u u reaches its lowest prefix exponent, -2, only before a meridian
    # letter, so the rows are shifted below every Fox term left.  The last
    # ends in a commutator of two long words: 76 letters, coefficient norm 6.
    # A drawn assignment runs the Fox route where H1 is larger than Z too,
    # and on fewer relators than columns.
    presentation, assignment = case
    assert outcome(lambda: alexander_from_presentation(presentation) if assignment is None
                   else _fox_route(presentation, assignment)) == \
        outcome(lambda: alexander_by_grid(presentation, assignment))


def test_alexander_from_presentation_runs_no_fox_columns(monkeypatch):
    """With every binding of `invariants._fox_columns` made to raise, a
    dense Nielsen-conjugated genus-6 knot still gets its Alexander
    polynomial from its presentation: the Fox route walks the letters once."""
    expected, action, conjugated = _dense_conjugated_knot(random.Random(6), 6)
    knot = FiberedKnot(Ambient.s3(), 6, SurfaceMonodromy(6, action))
    presentation = hnn_presentation(conjugated, surface_names(6))
    fox_columns = invariants._fox_columns

    def refuse(letters, exponents):
        raise AssertionError("alexander_from_presentation ran _fox_columns")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] in ("fibcalc", "oracles")
                and getattr(module, "_fox_columns", None) is fox_columns):
            monkeypatch.setattr(module, "_fox_columns", refuse)
    assert alexander_from_presentation(presentation) == alexander_poly(knot) == expected


def test_char_poly_builds_no_matrix_product(monkeypatch):
    """With `matrices._product` made to raise, a dense genus-6 knot still
    gets its Alexander polynomial from its homology action, and the 12 x 12
    abelianized Nielsen-conjugated free-group action its characteristic
    polynomial: the power sums come from packed matrix-vector steps."""
    expected, action, conjugated = _dense_conjugated_knot(random.Random(6), 6)
    knot = FiberedKnot(Ambient.s3(), 6, SurfaceMonodromy(6, action))
    free_action = abelianize(conjugated)

    def refuse(rows, columns):
        raise AssertionError("a characteristic polynomial ran a matrix product")

    monkeypatch.setattr(matrices, "_product", refuse)
    assert alexander_poly(knot) == expected
    assert char_poly(free_action) == expected


def test_alexander_from_presentation_builds_no_checked_constants(monkeypatch):
    """With the checked `LaurentPoly` constructor made to raise, a genus-1
    and a dense genus-6 knot still get their Alexander polynomials from their
    presentations: the route builds no constant, and no other polynomial,
    through the checked constructor."""
    cases = []
    for genus in (1, 6):
        expected, _, conjugated = _dense_conjugated_knot(random.Random(genus), genus)
        cases.append((hnn_presentation(conjugated, surface_names(genus)), expected))

    def refuse(self):
        raise AssertionError("alexander_from_presentation built a checked polynomial")

    monkeypatch.setattr(LaurentPoly, "__post_init__", refuse)
    for presentation, expected in cases:
        assert alexander_from_presentation(presentation) == expected


def test_alexander_of_a_long_relator_presentation():
    # phi^8 for the figure-8 monodromy phi: relators of 1600 and 2587 letters
    phi8 = catalog_knot("figure8").monodromy.pi1_action.power(8)
    presentation = hnn_presentation(phi8, surface_names(1))
    assert max(map(len, presentation.relators)) > 1000
    expected = LaurentPoly.from_dict({0: 1, 1: -2207, 2: 1})
    assert _fox_route(presentation, (0, 0, 1)) == expected
    assert alexander_by_grid(presentation, (0, 0, 1)) == expected


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-n, n).filter(bool), max_size=9), max_size=5))))
@settings(max_examples=200, deadline=None)
def test_smith_form_reads_what_smith_normal_form_gives(case):
    n, relators = case
    p = _presentation(tuple(f"x{i}" for i in range(1, n + 1)), *map(tuple, relators))
    columns = [rel.exponent_vector() for rel in p.relators]
    a = IntMatrix(n, len(relators), tuple(zip(*columns)) if columns else ((),) * n)
    d, u, _ = smith_normal_form(a)
    diag = [d.entries[i][i] for i in range(min(n, len(relators)))]
    rank = sum(1 for x in diag if x)
    h1(p)
    factors, rows = p._memo["smith"]
    free_rows = tuple(row for factor, row in zip(factors, rows) if factor == 0)
    assert factors == tuple(x for x in diag if x > 1) + (0,) * (n - rank)
    assert free_rows == u.entries[rank:]


def test_h1_examples():
    assert h1(GroupPresentation(("t",), ())) == [0]
    assert h1(GroupPresentation(("x",), (FreeWord(1, (1, 1)),))) == [2]
    two = GroupPresentation(("x", "y"), (FreeWord(2, (1, 1)), FreeWord(2, (2, 2, 2))))
    assert h1(two) == [6]
    p = knot_group(catalog_knot("square_knot"))
    assert h1(p) == [0]


# --- finite groups -------------------------------------------------------

def test_group_catalog():
    names = group_catalog_names()
    for expected in ("S3", "S4", "A4", "D4", "Z2", "Z12"):
        assert expected in names
    assert finite_group("S3").order == 6
    assert finite_group("S4").order == 24
    assert finite_group("A4").order == 12
    assert finite_group("D4").order == 8
    assert finite_group("Z7").order == 7
    with pytest.raises(CatalogError):
        finite_group("Z99")


def test_d4_is_the_closure_of_a_rotation_and_a_reflection():
    """D4 as the symmetries of a square: the closure of the rotation
    x -> x + 1 and the reflection x -> 1 - x (mod 4) under composition."""
    rot, ref = (1, 2, 3, 0), (1, 0, 3, 2)
    elements, frontier = {(0, 1, 2, 3)}, [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for q in (rot, ref):
            composed = tuple(p[q[i]] for i in range(4))
            if composed not in elements:
                elements.add(composed)
                frontier.append(composed)
    assert finite_group("D4") == invariants._perm_group("D4", sorted(elements))


def test_group_table_validation():
    bad = ((0, 1), (1, 1))  # not a group: no inverses / not associative
    with pytest.raises(MalformedInputError):
        FiniteGroupTable("bad", 2, bad, ("e", "x"))


def test_group_table_derives_identity_and_inverses():
    z2 = FiniteGroupTable("Z2", 2, ((1, 0), (0, 1)), ("x", "e"))
    assert z2.identity == 1
    assert z2.inverses == (0, 1)


def brute_force_count(presentation, group):
    """Independent oracle: plain product enumeration, no pruning."""
    n = presentation.n_generators
    table, inverses = group.table, group.inverses
    total = 0
    for assignment in product(range(group.order), repeat=n):
        ok = True
        for rel in presentation.relators:
            acc = group.identity
            for letter in rel.letters:
                x = assignment[abs(letter) - 1]
                acc = table[acc][x if letter > 0 else inverses[x]]
            if acc != group.identity:
                ok = False
                break
        if ok:
            total += 1
    return total


def test_count_homs_examples():
    s3 = finite_group("S3")
    free = GroupPresentation(("t",), ())
    assert count_homs(free, s3) == 6
    trivial = finite_group("Z1")
    assert count_homs(trefoil_two_bridge_presentation(), trivial) == 1


def test_count_homs_matches_brute_force():
    hnn = knot_group(catalog_knot("trefoil_R"))
    bridge = trefoil_two_bridge_presentation()
    for name in ("Z2", "Z3", "S3", "D4", "A4"):
        g = finite_group(name)
        expected_bridge = brute_force_count(bridge, g)
        assert count_homs(bridge, g) == expected_bridge
        assert count_homs(hnn, g) == expected_bridge  # same group, two shapes
    # the hand enumeration for S3 gives 12
    assert count_homs(bridge, finite_group("S3")) == 12


def test_count_homs_cross_presentation_all_catalog_groups():
    hnn = knot_group(catalog_knot("trefoil_R"))
    bridge = trefoil_two_bridge_presentation()
    for name in group_catalog_names():
        g = finite_group(name)
        assert count_homs(hnn, g) == count_homs(bridge, g)


def test_search_budget():
    p = knot_group(catalog_knot("square_knot"))  # 5 generators, 475 search nodes
    with pytest.raises(BudgetExceededError):
        _completed_search(p, finite_group("S4"), 400)


def test_count_homs_random_small_presentations():
    rng = random.Random(13)
    s3 = finite_group("S3")
    z6 = finite_group("Z6")
    for _ in range(12):
        n = rng.randint(1, 2)
        rels = tuple(FreeWord(n, tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                                       for _ in range(rng.randint(0, 5))))
                     for _ in range(rng.randint(0, 2)))
        p = GroupPresentation(tuple(f"g{i}" for i in range(n)), rels)
        for g in (s3, z6):
            assert count_homs(p, g) == brute_force_count(p, g)


CATALOG_KNOTS = ("unknot", "trefoil_R", "trefoil_L", "figure8", "square_knot", "granny_knot")


def _report_presentations():
    """The presentations a report counts homs of, for every catalog knot:
    the knot group, the spin's group, the half-spin exterior and the group
    of a double."""
    for name in CATALOG_KNOTS:
        knot = catalog_knot(name)
        disk = half_spin(knot)
        yield knot_group(knot)
        yield two_knot_group(spin(knot))
        yield exterior_presentation(disk)
        yield two_knot_group(double_disk(disk, 1))


def test_abelian_route_equals_search_route():
    for p in _report_presentations():
        for k in range(1, 13):
            g = finite_group(f"Z{k}")
            assert g.is_abelian
            assert count_homs(p, g) == _completed_search(p, g, HOM_NODE_BUDGET), (p, k)


def test_search_matches_brute_force_on_genus_one_report_presentations():
    for name in ("trefoil_R", "trefoil_L", "figure8"):
        knot = catalog_knot(name)
        disk = half_spin(knot)
        for p in (knot_group(knot), two_knot_group(spin(knot)), exterior_presentation(disk)):
            for group_name in ("S3", "D4", "A4"):
                g = finite_group(group_name)
                assert (_completed_search(p, g, HOM_NODE_BUDGET)
                        == brute_force_count(p, g))


def _presentation(names, *relators):
    return GroupPresentation(names, tuple(FreeWord(len(names), r) for r in relators))


# Shapes the search plan must handle, each counted into every non-abelian
# catalog group against the brute-force oracle.
SEARCH_EDGE_CASES = {
    "no generators": _presentation(()),
    "no relators": _presentation(("x", "y")),
    "no t": _presentation(("x", "y"), (1, 2, 1, -2, -1, -2)),
    "identity relator": _presentation(("t", "x"), (), (1, 2, -1, -2, -2)),
    "generator twice in a relator": _presentation(("x", "t"), (1, 1, 2, -1, 2)),
    "generator in no relator": _presentation(("t", "x", "y"), (1, 2, -1, -2, -2)),
    "forced meridian": _presentation(("x", "t"), (2,), (2, 1, -2, -1, -1)),
    "trefoil two-bridge": trefoil_two_bridge_presentation(),
}


@pytest.mark.parametrize("group_name", ["S3", "D4", "A4", "S4"])
@pytest.mark.parametrize("presentation", SEARCH_EDGE_CASES.values(),
                         ids=SEARCH_EDGE_CASES.keys())
def test_search_edge_cases_match_brute_force(presentation, group_name):
    g = finite_group(group_name)
    expected = brute_force_count(presentation, g)
    assert count_homs(presentation, g) == expected
    assert _completed_search(presentation, g, HOM_NODE_BUDGET) == expected


# The largest rank per group that keeps the brute-force oracle fast.
_ORACLE_RANK = {"S3": 4, "D4": 3, "A4": 3, "S4": 2}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_search_matches_brute_force_on_random_presentations(data):
    group_name = data.draw(st.sampled_from(sorted(_ORACLE_RANK)))
    n = data.draw(st.integers(0, _ORACLE_RANK[group_name]))
    names = [f"x{i}" for i in range(1, n + 1)]
    if n and data.draw(st.booleans()):
        names[data.draw(st.integers(0, n - 1))] = "t"
    relators = data.draw(st.lists(letters(n, max_len=8) if n else st.just([]), max_size=3))
    p = _presentation(tuple(names), *(tuple(r) for r in relators))
    g = finite_group(group_name)
    expected = brute_force_count(p, g)
    assert count_homs(p, g) == expected
    assert _completed_search(p, g, HOM_NODE_BUDGET) == expected


def _spun_sum(*names):
    knot = catalog_knot(names[0])
    for name in names[1:]:
        knot = connected_sum(knot, catalog_knot(name))
    return two_knot_group(spin(knot))


# Work gate: the search visits 8347, 1915, 475 and 301 nodes on these, while
# |G|^n is up to 24^9 = 2.6e12.  Each budget is about twice the visited
# nodes, so a search that deduces less fails here.  D4 splits, so
# `count_homs` would not search it; the gate calls the search itself.
@pytest.mark.parametrize("presentation, group_name, homs, budget", [
    (lambda: _spun_sum("square_knot", "square_knot"), "S4", 9552, 16700),
    (lambda: _spun_sum("square_knot", "trefoil_R"), "S4", 2016, 3830),
    (lambda: knot_group(catalog_knot("square_knot")), "S4", 432, 950),
    (lambda: _spun_sum("square_knot", "square_knot"), "D4", 8, 600),
], ids=["spin(square#square) S4", "spin(square#trefoil) S4", "square S4",
        "spin(square#square) D4"])
def test_search_work_gate(presentation, group_name, homs, budget):
    assert _completed_search(presentation(), finite_group(group_name), budget) == homs


def test_spin_square_square_into_s4_at_default_budget():
    p = _spun_sum("square_knot", "square_knot")  # 9 generators: |S4|^9 = 2.6e12
    start = perf_counter()
    assert count_homs(p, finite_group("S4")) == 9552
    assert perf_counter() - start < 0.2


def test_halving_family_genus_3_with_default_groups():
    family = halving_family(spin(connected_sum(catalog_knot("square_knot"),
                                               catalog_knot("trefoil_R"))), [0, 1])
    assert [entry.slope for entry in family] == [0, 1]
    report = family[0].contractibility_report
    assert [name for name, _ in report.quotient_checks] == list(group_catalog_names())
    assert report.contractible_consistent


def test_budget_error_reports_nodes_visited():
    p = knot_group(catalog_knot("trefoil_R"))  # 91 search nodes into S4
    with pytest.raises(BudgetExceededError, match="visited 11 nodes, over the budget 10"):
        _completed_search(p, finite_group("S4"), 10)
    assert _completed_search(p, finite_group("S4"), 91) == 96
    with pytest.raises(BudgetExceededError):
        _completed_search(p, finite_group("S4"), 90)


def counted_smith(monkeypatch) -> list:
    """Replace the Smith elimination of `invariants` by one that records
    each call; the returned list grows by one per elimination."""
    calls, smith = [], invariants._smith

    def counted(*args):
        calls.append(args)
        return smith(*args)
    monkeypatch.setattr(invariants, "_smith", counted)
    return calls


def test_renamed_presentation_shares_h1_and_counts(monkeypatch):
    """The names of the generators other than "t" change no invariant.  Each
    presentation keeps its own memo: one H1 Smith form, read by H1, the
    abelian counts and the Fox-route exponents, and one set of Fox diagonals
    for S3 and D4, whose c both act by -1, and one for A4."""
    smiths = counted_smith(monkeypatch)
    f = connected_sum(catalog_knot("square_knot"), catalog_knot("figure8")).monodromy.pi1_action
    knot_names = hnn_presentation(f, surface_names(3))
    spin_names = hnn_presentation(f, handlebody_names(6))
    assert knot_names != spin_names
    diagonal = h1(knot_names)
    counts = {name: count_homs(knot_names, finite_group(name))
              for name in ("S3", "D4", "A4", "Z6")}
    exponents = infinite_cyclic_exponents(knot_names)
    assert len(smiths) == 4  # H1, ψ ≠ 0 into Z/2 once, into Z/3 twice
    assert h1(knot_names) == diagonal
    assert {name: count_homs(knot_names, finite_group(name)) for name in counts} == counts
    assert len(smiths) == 4
    assert h1(spin_names) == diagonal
    assert infinite_cyclic_exponents(spin_names) == exponents
    assert {name: count_homs(spin_names, finite_group(name)) for name in counts} == counts
    assert len(smiths) == 8


def test_cached_count_keeps_the_budget_contract():
    p = knot_group(catalog_knot("square_knot"))  # 475 search nodes into S4
    assert count_homs(p, finite_group("S4")) == 432
    with pytest.raises(BudgetExceededError, match="over the budget 100"):
        _completed_search(p, finite_group("S4"), 100)
    renamed = hnn_presentation(catalog_knot("square_knot").monodromy.pi1_action,
                               handlebody_names(4))
    with pytest.raises(BudgetExceededError):
        _completed_search(renamed, finite_group("S4"), 100)
    assert _completed_search(p, finite_group("S4"), 950) == 432


def test_meridian_position_sets_the_first_search_step():
    relators = ((1, 2, -1, -2, -2), (2, 2, 2))
    t_first = _presentation(("t", "x"), *relators)
    t_second = _presentation(("x", "t"), *relators)
    g = finite_group("S4")
    assert count_homs(t_first, g) == brute_force_count(t_first, g)
    assert count_homs(t_second, g) == brute_force_count(t_second, g)
    assert invariants._search_plan(t_first)[0][0] == 0
    assert invariants._search_plan(t_second)[0][0] == 2


def test_route_equivalence_all_catalog_knots():
    from fibcalc.fibered import alexander_poly
    for name in ("unknot", "trefoil_R", "trefoil_L", "figure8",
                 "square_knot", "granny_knot"):
        k = catalog_knot(name)
        assert alexander_from_presentation(knot_group(k)) == alexander_poly(k)


def test_spin_group_counts_match_knot_group_all_catalog():
    from fibcalc.two_knot import spin, two_knot_group
    for name in ("unknot", "trefoil_R", "figure8", "square_knot", "granny_knot"):
        k = catalog_knot(name)
        s = spin(k)
        for gname in ("Z2", "Z3", "Z4", "Z5", "S3", "D4"):
            g = finite_group(gname)
            assert count_homs(two_knot_group(s), g) == count_homs(knot_group(k), g)


_FACTORS = {"trefoil_R": {0: 1, 1: -1, 2: 1}, "trefoil_L": {0: 1, 1: -1, 2: 1},
            "figure8": {0: 1, 1: -3, 2: 1}}


def _dense_conjugated_knot(rng, genus):
    """(known Alexander polynomial, homology action, free-group action) of a
    connected sum of genus-1 catalog knots: the action is conjugated by a
    symplectic matrix with no zero entry left in it, and the free-group
    action by random Nielsen moves until its images hold 4 g^2 letters."""
    names = [rng.choice(sorted(_FACTORS)) for _ in range(genus)]
    knot = catalog_knot(names[0])
    for name in names[1:]:
        knot = connected_sum(knot, catalog_knot(name))
    expected = LaurentPoly(((0, 1),))
    for name in names:
        expected = laurent_product(expected, LaurentPoly.from_dict(_FACTORS[name]))
    j = symplectic_form(genus)
    while True:
        p = IntMatrix.identity(2 * genus)
        for _ in range(genus + 2):
            p = p.mul(transvection([rng.choice((-1, 0, 1)) for _ in range(2 * genus)],
                                   rng.choice((-1, 1))))
        action = p.mul(knot.monodromy.action).mul(j.mul(p.transpose()).mul(j).neg())
        if all(x for row in action.entries for x in row):
            break
    f = conjugated = knot.monodromy.pi1_action
    rank = f.rank
    nielsen = FreeGroupMap.identity(rank)
    while sum(len(w) for w in conjugated.images) < 4 * genus * genus:
        a, b = rng.sample(range(1, rank + 1), 2)
        sign = rng.choice((1, -1))
        images = [[x] for x in range(1, rank + 1)]
        inverses = [[x] for x in range(1, rank + 1)]
        images[a - 1], inverses[a - 1] = [a, sign * b], [a, -sign * b]
        nielsen = compose(nielsen, FreeGroupMap.from_letters(rank, images, inverses))
        conjugated = compose(compose(nielsen, f), nielsen.inverse())
    return expected, action, conjugated


@pytest.mark.parametrize("genus", range(1, 7))
def test_cyclic_exponents_are_the_oracle_free_row(genus):
    """The Fox route takes its sign from the one free row of U; on conjugated
    HNN presentations it is the row the elimination oracle gives."""
    _, _, conjugated = _dense_conjugated_knot(random.Random(100 + genus), genus)
    presentation = hnn_presentation(conjugated, surface_names(genus))
    n, relators = presentation.n_generators, presentation.relators
    columns = [rel.exponent_vector() for rel in relators]
    d, u, _ = smith_elimination([list(row) for row in zip(*columns)], len(relators), False)
    assert [d[i][i] for i in range(n - 1)] == [1] * (n - 1) and not any(d[n - 1])
    assert infinite_cyclic_exponents(presentation) == tuple(u[n - 1])


@pytest.mark.parametrize("genus", [7, 8, 9, 12, 15])
def test_route_equivalence_dense_conjugated_knots(genus):
    expected, action, conjugated = _dense_conjugated_knot(random.Random(genus), genus)
    assert normalize_alexander(char_poly(action)) == expected
    assert normalize_alexander(char_poly(abelianize(conjugated))) == expected
    homology_only = FiberedKnot(Ambient.s3(), genus, SurfaceMonodromy(genus, action))
    assert alexander_poly(homology_only) == expected
    presentation = hnn_presentation(conjugated, surface_names(genus))
    assert alexander_from_presentation(presentation) == expected
