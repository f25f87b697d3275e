"""Monodromies, curves, disks, matrices, polynomials and presentation
relators derived from checked values are built without a second check.
These tests rebuild every derived value through the full checked constructor
and require an equal result, so a derivation that broke a fact the
constructor checks (symplectic action, payload abelianizing to the action,
Lagrangian compatibility, normalized fields, reduced words) would fail here.
The doubled boundary, the a-row compatibility check and `spin` are also
compared with the general routines they replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc import mcg
from fibcalc.errors import FibcalcError, MalformedInputError, RankMismatchError, replace
from fibcalc.fibered import (Ambient, FiberedKnot, catalog_knot, connected_sum,
                             mirror_knot, stallings_twist)
from fibcalc.invariants import FiniteGroupTable, finite_group, group_catalog_names
from fibcalc.laurent import LaurentPoly, laurent_gcd, normalize_alexander
from fibcalc.matrices import IntMatrix, block_diag, smith_diagonal, smith_normal_form
from fibcalc.mcg import (CurveSpec, HandlebodyMonodromy, SurfaceMonodromy,
                         boundary_connected_sum, cg_compatibility, compose_monodromy,
                         curated_payload, is_symplectic, mirror, symplectic_form,
                         transvection, twist_monodromy)
from fibcalc.presentation import GroupPresentation, hnn_presentation
from fibcalc.ribbon_disk import (_doubling_change_of_basis, disk_twist, doubled_boundary,
                                 exterior_presentation, half_spin)
from fibcalc.serialize import dumps
from fibcalc.two_knot import double_disk, spin
from fibcalc.words import FreeGroupMap, FreeWord, compose, surface_names
from oracles import fox_row, in_row_span, inverse_unimodular, matrix_power, mul_vec

STALLINGS = tuple(curated_payload(f"square_knot_stallings_c{i}{s}")
                  for i in (1, 2) for s in ("", "_neg"))


def curves(genus):
    names = [f"g{genus}_{k}{i}" for k in "ab" for i in range(1, genus + 1)]
    out = tuple(curated_payload(name) for name in names)
    return out + STALLINGS if genus == 2 else out


def twist_words(genus, max_len=5):
    return st.lists(st.tuples(st.sampled_from(curves(genus)), st.integers(-3, 3)),
                    max_size=max_len)


def genus3_curves():
    return tuple(c.extend(3, offset) for c in curves(1) + curves(2)
                 for offset in range(4 - c.genus))


def recheck_map(f):
    if f is not None:
        assert FreeGroupMap(f.rank, f.images, f.inverse_images) == f


def recheck_curve(c):
    assert CurveSpec(c.genus, c.homology_class, c.pi1_payload, c.bounds_disk_in_handlebody,
                     c.unknotted_in_ambient, c.fiber_framing_zero, c.name) == c
    recheck_map(c.pi1_payload)


def recheck(m):
    assert SurfaceMonodromy(m.genus, m.action, m.pi1_action, m.provenance) == m
    recheck_map(m.pi1_action)
    for c, _ in m.provenance:
        recheck_curve(c)


def recheck_handlebody(h):
    assert HandlebodyMonodromy(h.genus, h.pi1_action, h.boundary) == h
    recheck(h.boundary)


def recheck_presentation(p):
    relators = tuple(FreeWord(r.rank, r.letters) for r in p.relators)
    assert GroupPresentation(p.generators, relators) == p


@given(twist_words(1), twist_words(2), st.data())
@settings(max_examples=40, deadline=None)
def test_derived_values_pass_the_full_check(word1, word2, data):
    m1 = SurfaceMonodromy.from_twist_word(1, word1)
    m2 = SurfaceMonodromy.from_twist_word(2, word2)
    for m in (m1, m2, SurfaceMonodromy.identity(2)):
        recheck(m)
        recheck(mirror(m))
    c, k = data.draw(st.sampled_from(curves(2))), data.draw(st.integers(-3, 3))
    recheck(twist_monodromy(c, k))
    recheck(compose_monodromy(m2, twist_monodromy(c, k)))
    recheck(compose_monodromy(mirror(m2), m2))
    total = boundary_connected_sum(m1, m2)
    recheck(total)
    recheck(boundary_connected_sum(m2, mirror(m1)))
    offset = data.draw(st.integers(0, 1))
    recheck_curve(c.extend(3, offset))
    recheck(compose_monodromy(total, twist_monodromy(c.extend(3, offset), k)))

    stallings = data.draw(st.sampled_from(STALLINGS))
    m = data.draw(st.integers(-3, 3))
    knot = stallings_twist(FiberedKnot(Ambient.s3(), 2, m2), stallings, m)
    recheck(knot.monodromy)
    disk = half_spin(FiberedKnot(Ambient.s3(), 1, m1))
    recheck_handlebody(disk.monodromy)
    for _ in range(data.draw(st.integers(1, 3))):
        disk = disk_twist(disk, data.draw(st.sampled_from(STALLINGS)),
                          data.draw(st.integers(-3, 3)))
        recheck_handlebody(disk.monodromy)
    recheck_handlebody(half_spin(FiberedKnot(Ambient.s3(), 2, m2)).monodromy)
    recheck(doubled_boundary(m2))
    recheck(doubled_boundary(mirror(total)))
    for m in (m1, m2, total, knot.monodromy):
        recheck_presentation(hnn_presentation(m.pi1_action, surface_names(m.genus)))
    recheck_presentation(exterior_presentation(disk))


def test_derived_disks_skip_the_compatibility_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("cg_compatibility ran on a derived value")
    monkeypatch.setattr(mcg, "cg_compatibility", refuse)
    for name in ("trefoil_R", "square_knot"):
        disk = half_spin(catalog_knot(name))
        doubled_boundary(disk.monodromy.boundary)
    disk_twist(half_spin(catalog_knot("figure8")), STALLINGS[0], 3)
    with pytest.raises(AssertionError):
        HandlebodyMonodromy(disk.monodromy.genus, disk.monodromy.pi1_action,
                            disk.monodromy.boundary)


# --------------------------------------------------------------------------
# The doubled boundary against the hand assembly it replaced
# --------------------------------------------------------------------------

def hand_doubled_boundary(monodromy):
    """The doubled monodromy assembled entry by entry in the adapted basis."""
    g = monodromy.genus
    a = monodromy.action
    n = 4 * g
    rows = [[0] * n for _ in range(n)]

    def a_row(j):  # 0-based row/col of the doubled class a_j, j = 1..2g
        return 2 * (j - 1)

    def b_row(j):
        return 2 * j - 1

    for i in range(1, g + 1):
        for k in range(1, g + 1):
            p = a.entries[2 * k - 2][2 * i - 2]
            q = a.entries[2 * k - 1][2 * i - 2]
            r = a.entries[2 * k - 2][2 * i - 1]
            s = a.entries[2 * k - 1][2 * i - 1]
            col = a_row(2 * i - 1)
            rows[a_row(2 * k - 1)][col] += p
            rows[b_row(2 * k - 1)][col] += q
            rows[a_row(2 * k)][col] += q
            col = a_row(2 * i)
            rows[a_row(2 * k - 1)][col] += r
            rows[a_row(2 * k)][col] += s
            rows[b_row(2 * k)][col] += r
            col = b_row(2 * i - 1)
            rows[b_row(2 * k - 1)][col] += s
            rows[b_row(2 * k)][col] += -r
            col = b_row(2 * i)
            rows[b_row(2 * k - 1)][col] += -q
            rows[b_row(2 * k)][col] += p
    action = IntMatrix.from_rows(rows) if n else IntMatrix.identity(0)

    payload = None
    f = monodromy.pi1_action
    if f is not None and f.has_witness:
        rank = 4 * g
        two_copies = compose(f.extend(rank, 0), f.extend(rank, 2 * g))
        c, cinv = _doubling_change_of_basis(g)
        payload = compose(compose(cinv, two_copies), c)
    return SurfaceMonodromy(2 * g, action, payload)


def check_doubled_boundary(m):
    derived = doubled_boundary(m)
    assert derived == hand_doubled_boundary(m)
    recheck(derived)
    homology_only = SurfaceMonodromy(m.genus, m.action)
    assert doubled_boundary(homology_only) == SurfaceMonodromy(2 * m.genus, derived.action)


def test_catalog_groups_pass_the_full_check():
    """The catalog tables skip the constructor's checks: the checked
    constructor must find each a group and derive the same identity and
    inverses (compared fields)."""
    for name in group_catalog_names():
        group = finite_group(name)
        assert FiniteGroupTable(group.label, group.order, group.table, group.names) == group


def test_catalog_knots_share_one_trefoil_build():
    """The left-handed trefoil, square and granny knots are built from the
    catalog's right-handed trefoil, and equal fresh builds."""
    trefoil = SurfaceMonodromy.from_twist_word(
        1, [(curated_payload("g1_a1"), 1), (curated_payload("g1_b1"), 1)])
    assert curated_payload("trefoil_R") == trefoil
    assert curated_payload("trefoil_L") == mirror(trefoil)
    assert curated_payload("square_knot") == boundary_connected_sum(trefoil, mirror(trefoil))
    assert curated_payload("granny_knot") == boundary_connected_sum(trefoil, trefoil)


def test_doubled_boundary_matches_the_hand_assembly_on_the_catalog():
    for name in ("unknot", "trefoil_R", "trefoil_L", "figure8", "square_knot", "granny_knot"):
        check_doubled_boundary(catalog_knot(name).monodromy)


@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.tuples(st.sampled_from(genus3_curves() if g == 3 else curves(g)),
                                   st.integers(-3, 3)), max_size=5))))
@settings(max_examples=40, deadline=None)
def test_doubled_boundary_matches_the_hand_assembly(genus_and_word):
    genus, word = genus_and_word
    m = SurfaceMonodromy.from_twist_word(genus, word)
    check_doubled_boundary(m)
    check_doubled_boundary(mirror(m))


# --------------------------------------------------------------------------
# spin against the double of the half-spin it replaced
# --------------------------------------------------------------------------

CATALOG_KNOTS = ("unknot", "trefoil_R", "trefoil_L", "figure8", "square_knot", "granny_knot")


def check_spin(knot):
    label = f"spin({knot.label})" if knot.label is not None else "spin"
    expected = replace(double_disk(half_spin(knot), 0), provenance=(label,), label=label)
    got = spin(knot)
    assert got == expected
    assert (got.provenance, got.label) == (expected.provenance, expected.label)
    assert dumps(got) == dumps(expected)


def test_spin_is_the_double_of_the_half_spin_on_the_catalog():
    knots = [catalog_knot(name) for name in CATALOG_KNOTS]
    knots += [connected_sum(k1, k2) for k1 in knots[1:4] for k2 in knots[1:4]]
    for knot in knots:
        check_spin(knot)
        check_spin(mirror_knot(knot))


@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.tuples(st.sampled_from(genus3_curves() if g == 3 else curves(g)),
                                   st.integers(-3, 3)), max_size=5))),
       st.sampled_from(CATALOG_KNOTS), st.sampled_from(["K", None]))
@settings(max_examples=40, deadline=None)
def test_spin_is_the_double_of_the_half_spin(genus_and_word, name, label):
    genus, word = genus_and_word
    knot = FiberedKnot(Ambient.s3(), genus, SurfaceMonodromy.from_twist_word(genus, word),
                       label)
    for k in (knot, mirror_knot(knot), connected_sum(knot, catalog_knot(name))):
        check_spin(k)


# --------------------------------------------------------------------------
# The a-row compatibility check against the general one it replaced
# --------------------------------------------------------------------------

def standard_rows(genus, parity):
    """Rows [a_i] (parity 0) or [b_i] (parity 1) of the interleaved basis."""
    return IntMatrix.from_rows([[1 if k == 2 * i + parity else 0 for k in range(2 * genus)]
                                for i in range(genus)])


def general_cg_compatibility(action, quotient_action):
    """Lagrangian compatibility for span{[b_i]} by Smith forms and integer
    solves: the general routine, for any Lagrangian and quotient basis."""
    if action.rows != action.cols or action.rows % 2 != 0:
        raise RankMismatchError("action must be a square 2g x 2g matrix")
    genus = action.rows // 2
    if not is_symplectic(action):
        raise MalformedInputError("action must be symplectic")
    lagrangian, quotient_basis = standard_rows(genus, 1), standard_rows(genus, 0)
    if (quotient_action.rows, quotient_action.cols) != (genus, genus):
        raise RankMismatchError("quotient action must be g x g")
    failures = []
    diag = smith_diagonal(lagrangian)
    if len([d for d in diag if d != 0]) != genus or any(d not in (0, 1) for d in diag):
        failures.append("rows do not span a rank-g primitive direct summand")
    j = symplectic_form(genus)
    zero = IntMatrix(genus, genus, ((0,) * genus,) * genus)
    if lagrangian.mul(j).mul(lagrangian.transpose()) != zero:
        failures.append("span is not isotropic")
    stacked = IntMatrix.from_rows(list(quotient_basis.entries) + list(lagrangian.entries))
    if abs(stacked.det()) != 1:
        failures.append("quotient basis and lagrangian do not form a basis")
    if not failures:
        for i in range(genus):
            image = mul_vec(action, lagrangian.entries[i])
            if not in_row_span(lagrangian, image):
                failures.append(f"action moves lagrangian row {i + 1} out of the span")
        for jcol in range(genus):
            image = list(mul_vec(action, quotient_basis.entries[jcol]))
            for i in range(genus):
                coeff = quotient_action.entries[i][jcol]
                for k in range(2 * genus):
                    image[k] -= coeff * quotient_basis.entries[i][k]
            if not in_row_span(lagrangian, tuple(image)):
                failures.append(f"induced quotient map differs from the given one "
                                f"on basis vector {jcol + 1}")
    return failures


def outcome(check, *args):
    try:
        result = check(*args)
    except FibcalcError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, list) else list(result.failures)


def handle_slide(genus, i, j, s):
    """a_j -> a_j + s a_i, b_i -> b_i - s b_j: symplectic, preserves
    span{[b_k]}, and acts on the quotient by I + s e_i e_j^T."""
    rows = [[int(r == c) for c in range(2 * genus)] for r in range(2 * genus)]
    rows[2 * i][2 * j] += s
    rows[2 * j + 1][2 * i + 1] -= s
    quotient = [[int(r == c) for c in range(genus)] for r in range(genus)]
    quotient[i][j] += s
    return IntMatrix.from_rows(rows), IntMatrix.from_rows(quotient)


@st.composite
def compatibility_cases(draw):
    """A symplectic action with its quotient action, built from handle slides
    and twists along b-curves; then perhaps one twist along any class, a
    perturbed quotient action or a non-symplectic action."""
    genus = draw(st.integers(1, 4))
    n = 2 * genus
    action, quotient = IntMatrix.identity(n), IntMatrix.identity(genus)
    for _ in range(draw(st.integers(0, 5))):
        if genus > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, genus - 1), min_size=2, max_size=2,
                                 unique=True))
            slide, q = handle_slide(genus, i, j, draw(st.integers(-2, 2)))
            action, quotient = action.mul(slide), quotient.mul(q)
        else:
            vec = [0] * n
            for i in range(genus):
                vec[2 * i + 1] = draw(st.integers(-2, 2))
            action = action.mul(transvection(vec, draw(st.integers(-2, 2))))
    spoil = draw(st.sampled_from(["none", "twist", "quotient", "nonsymplectic", "shape"]))
    if spoil == "twist":
        vec = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        action = transvection(vec, draw(st.integers(-2, 2))).mul(action)
    elif spoil == "quotient":
        i, j = draw(st.integers(0, genus - 1)), draw(st.integers(0, genus - 1))
        rows = [list(row) for row in quotient.entries]
        rows[i][j] += draw(st.sampled_from([-1, 1]))
        quotient = IntMatrix.from_rows(rows)
    elif spoil == "nonsymplectic":
        action = IntMatrix.from_rows(draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    elif spoil == "shape":
        quotient = IntMatrix.identity(genus + draw(st.sampled_from([-1, 1])))
    return action, quotient


@given(compatibility_cases())
@settings(max_examples=300, deadline=None)
def test_a_row_check_matches_the_general_check(case):
    assert outcome(cg_compatibility, *case) == outcome(general_cg_compatibility, *case)


def test_a_row_check_matches_the_general_check_on_shapes():
    for action in (IntMatrix.identity(3), IntMatrix(2, 4, ((0,) * 4,) * 2), IntMatrix.identity(0)):
        for quotient in (IntMatrix.identity(0), IntMatrix.identity(1)):
            expected = outcome(general_cg_compatibility, action, quotient)
            assert outcome(cg_compatibility, action, quotient) == expected


# --------------------------------------------------------------------------
# Arithmetic results against their rebuild through the checked constructor
# --------------------------------------------------------------------------

def recheck_matrix(m):
    assert IntMatrix(m.rows, m.cols, m.entries) == m
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)


def recheck_poly(p):
    assert LaurentPoly(p.terms) == p


def matrices(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(rows, cols, tuple(map(tuple, data))))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_matrix_arithmetic_is_canonical(r, k, c, data):
    a, b = data.draw(matrices(r, k)), data.draw(matrices(r, k))
    m = data.draw(matrices(k, c))
    square = data.draw(matrices(r, r))
    for result in (a.mul(m), a.add(b), a.add(a.neg()), a.neg(), a.transpose(),
                   matrix_power(square, data.draw(st.integers(0, 3))), block_diag(a, m),
                   block_diag(), *smith_normal_form(a)):
        recheck_matrix(result)
    unimodular = transvection(data.draw(st.lists(st.integers(-2, 2), min_size=2 * r,
                                                 max_size=2 * r)), 1)
    recheck_matrix(matrix_power(unimodular, -data.draw(st.integers(1, 3))))
    inverse = mirror(SurfaceMonodromy(r, unimodular)).action
    recheck_matrix(inverse)
    assert inverse == inverse_unimodular(unimodular)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-n, n).filter(bool), max_size=30).map(lambda seq: FreeWord(n, seq)),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_fox_row_entries_are_canonical(word_and_exponents):
    word, exponents = word_and_exponents
    for entry in fox_row(word, exponents):
        assert LaurentPoly.from_dict(dict(entry.terms)) == entry


def polys():
    return st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=5).map(
        LaurentPoly.from_dict)


@given(polys(), polys(), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_laurent_arithmetic_is_canonical(p, q, k):
    """Negation and `shift`, and the gcd and normal form built on them."""
    results = [-p, p.shift(k), -p.shift(k), laurent_gcd(p, q)]
    if not p.is_zero:
        results.append(normalize_alexander(p))
    for result in results:
        recheck_poly(result)
