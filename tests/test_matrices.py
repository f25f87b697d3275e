import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fibcalc.errors import MalformedInputError, RankMismatchError
from fibcalc.laurent import LaurentPoly
from fibcalc.matrices import (IntMatrix, _char_poly, _pivot, _smith, block_diag, char_poly,
                              laurent_det, smith_diagonal, smith_normal_form)
from fibcalc.mcg import SurfaceMonodromy, mirror, symplectic_form, transvection
from oracles import (dense_symplectic, in_row_span, inverse_unimodular, laurent_product,
                     matrix_power, smith_elimination, solve_int)


def fraction_det(m: IntMatrix) -> Fraction:
    """Independent determinant oracle: Gaussian elimination over Q."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_det_against_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 6)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)]) if n else IntMatrix.identity(0)
        assert m.det() == int(fraction_det(m))


def test_char_poly_examples():
    assert char_poly(IntMatrix.identity(2)) == LaurentPoly.from_dict({0: 1, 1: -2, 2: 1})
    a = IntMatrix.from_rows([[0, 1], [-1, 1]])
    assert char_poly(a) == LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert char_poly(IntMatrix.identity(0)) == LaurentPoly(((0, 1),))


def test_char_poly_block_multiplicativity():
    rng = random.Random(5)
    for _ in range(20):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(na)] for _ in range(na)])
        b = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(nb)] for _ in range(nb)])
        assert char_poly(block_diag(a, b)) == laurent_product(char_poly(a), char_poly(b))


def test_char_poly_matches_pointwise_oracle():
    rng = random.Random(23)
    for trial in range(35):
        n = rng.randint(1, 5) if trial < 30 else 6  # 6 x 6: the largest fiber row of a script
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        p = char_poly(a)
        for t0 in range(-3, 4):
            shifted = IntMatrix.from_rows(
                [[(t0 if i == j else 0) - a.entries[i][j] for j in range(n)]
                 for i in range(n)])
            assert p.evaluate(t0) == int(fraction_det(shifted))


def test_char_poly_requires_square():
    with pytest.raises(RankMismatchError):
        char_poly(IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0))))


def test_laurent_det_small():
    t = LaurentPoly(((1, 1),))
    one = LaurentPoly(((0, 1),))
    grid = [[t, one], [one, t]]
    assert laurent_det(grid) == LaurentPoly(((0, -1), (2, 1)))
    assert laurent_det([]) == one


def test_char_poly_matches_sympy_up_to_18x18():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(2024)
    cases = [(n, 0) for n in [*range(1, 19), 18, 18]] + [(n, 10**6) for n in (3, 5, 7, 9, 11)]
    for n, near in cases:  # entries within 9 of 0, or of +-10^6 at odd sizes
        rows = [[rng.randint(-9, 9) + (near and rng.choice((-near, near))) for _ in range(n)]
                for _ in range(n)]
        expected = sympy.Matrix(rows).charpoly(t).all_coeffs()  # det(tI - A)
        assert char_poly(IntMatrix.from_rows(rows)) == LaurentPoly.from_dict(
            {n - i: int(c) for i, c in enumerate(expected)})


def _sympy_char_poly(rows) -> LaurentPoly:
    """det(tI - A) by sympy, for a list of n rows."""
    sympy = pytest.importorskip("sympy")
    n = len(rows)
    expected = sympy.Matrix(n, n, [x for row in rows for x in row]).charpoly(
        sympy.Symbol("t")).all_coeffs()
    return LaurentPoly.from_dict({n - i: int(c) for i, c in enumerate(expected)})


def _sparse_rows(rng, n):
    """A cycle of ones plus two entries in [-2, 2] per row: sparse, as
    twisted actions are."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
        for _ in range(2):
            rows[i][rng.randrange(n)] = rng.randint(-2, 2)
    return rows


def test_char_poly_matches_sympy_on_sparse_and_width_edge_matrices():
    """The sizes that twisted actions reach, and the matrices whose power-sum
    digits sit closest to the packing width bit_length(n r^n) + 2: all
    entries +-c (A^j = (+-c)^j n^(j-1) J, every digit (cn)^j in size), the
    sign alternating with j for -c; entries near +-10^40; a 1 x 1, the
    0 x 0 and the zero matrix."""
    rng = random.Random(48)
    cases = [_sparse_rows(rng, n) for n in (24, 32, 48)]
    cases += [[[c] * n for _ in range(n)] for n in (2, 5, 12) for c in (1, -1, 7, -7, 10**20)]
    cases += [[[rng.choice((-1, 1)) * 10**40 + rng.randint(-9, 9) for _ in range(n)]
               for _ in range(n)] for n in (1, 3, 6, 9)]
    cases += [[[-10**40]], [[0]], [], [[0] * 7 for _ in range(7)]]
    for rows in cases:
        a = IntMatrix.from_rows(rows) if rows else IntMatrix.identity(0)
        expected = _sympy_char_poly(rows)
        assert char_poly(a).terms == _char_poly(a, a.rows).terms == expected.terms


def _random_laurent(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return LaurentPoly()
    return LaurentPoly.from_dict({rng.randint(-3, 3): rng.randint(-4, 4)
                                  for _ in range(rng.randint(1, 3))})


def test_laurent_det_matches_sympy_with_negative_exponents_and_zero_pivots():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    rng = random.Random(7)
    for case in range(60):
        n = 1 + case % 8
        grid = [[_random_laurent(rng) for _ in range(n)] for _ in range(n)]
        if case % 3 == 1:
            grid[0][0] = LaurentPoly()  # zero first pivot
        if case % 3 == 2 and n >= 2:
            # second row a multiple of the first in the first two columns:
            # the leading 2x2 minor, the second pivot, vanishes
            c = _random_laurent(rng, zero_share=0)
            grid[1][0], grid[1][1] = laurent_product(c, grid[0][0]), laurent_product(c, grid[0][1])
        # oracle: t^(6n) det(grid) = det(t^6 grid), a determinant over Z[t]
        shifted = DomainMatrix(
            [[ring.from_sympy(sum((c * t**(e + 6) for e, c in p.terms), sympy.Integer(0)))
              for p in row] for row in grid], (n, n), ring)
        expected = sympy.Poly(ring.to_sympy(shifted.det()), t)
        got = laurent_det(grid).shift(6 * n)
        assert got == LaurentPoly.from_dict({e: int(c) for (e,), c in expected.terms()})


def test_laurent_det_row_swaps_and_singular_grids():
    t, one, zero = LaurentPoly(((1, 1),)), LaurentPoly(((0, 1),)), LaurentPoly()
    t_inverse = LaurentPoly(((-1, 1),))
    # zero pivots at every step: an anti-diagonal permutation grid
    assert laurent_det([[zero, zero, t], [zero, one, zero], [t_inverse, zero, zero]]) == -one
    assert laurent_det([[zero, t], [t, zero]]) == LaurentPoly(((2, -1),))
    assert laurent_det([[t, one], [t, one]]).is_zero
    assert laurent_det([[t, one], [zero, zero]]).is_zero
    with pytest.raises(RankMismatchError):
        laurent_det([[t, one]])


def test_inverse_unimodular_dense_genus_6_symplectic():
    """`mirror` inverts a symplectic action P as -J P^T J; on dense P of
    genus 1 to 6 that is the Smith-witness inverse."""
    rng = random.Random(6)
    for genus in range(1, 7):
        p = dense_symplectic(rng, genus)
        inverse = mirror(SurfaceMonodromy(genus, p)).action
        assert inverse == inverse_unimodular(p)
        j, identity = symplectic_form(genus), IntMatrix.identity(2 * genus)
        assert inverse == j.mul(p.transpose()).mul(j).neg()
        assert p.mul(inverse) == identity and inverse.mul(p) == identity
        assert matrix_power(p, -3).mul(matrix_power(p, 3)) == identity


def _large_conjugate(rng, action: IntMatrix, vec, multiplier: int) -> IntMatrix:
    """P A P^-1 for P = Q T, Q from `dense_symplectic` and T the transvection
    of class `vec`; with a multiplier in the hundreds the entries reach 10^6
    and more."""
    genus = action.rows // 2
    p = dense_symplectic(rng, genus).mul(transvection(vec, multiplier))
    j = symplectic_form(genus)
    return p.mul(action).mul(j.mul(p.transpose()).mul(j).neg())


@st.composite
def symplectic_actions(draw):
    """The action of a `SurfaceMonodromy` of genus 0 to 8 (whose constructor
    checks that it is symplectic): a product of transvections of random
    classes, in about half the draws of genus >= 1 a `_large_conjugate`."""
    genus = draw(st.integers(0, 8))
    n = 2 * genus
    classes = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    action = IntMatrix.identity(n)
    for vec, m in draw(st.lists(st.tuples(classes, st.integers(-3, 3)), max_size=n + 2)):
        action = action.mul(transvection(vec, m))
    if genus and draw(st.booleans()):
        action = _large_conjugate(draw(st.randoms(use_true_random=False)), action,
                                  draw(classes), draw(st.integers(100, 300)))
    return SurfaceMonodromy(genus, action).action


# SL2 blocks with entries near 10^40, whose power-sum digits reach the packing width
_NEAR_10_40 = [IntMatrix.from_rows(b) for b in ([[1, 10**40], [0, 1]], [[-1, 0], [0, -1]],
                                                [[10**40 + 1, 10**40], [1, 1]])]


@given(symplectic_actions())
@example(IntMatrix.identity(0))  # genus 0: the 0 x 0 action has polynomial 1
@example(IntMatrix.from_rows([[1, 1], [-1, 0]]))  # genus 1: one packed step
@example(IntMatrix.from_rows([[1, 4], [0, 1]]))  # genus 1, repeated root 1
@example(_NEAR_10_40[2])
@example(block_diag(*_NEAR_10_40, _NEAR_10_40[2]))
@example(_large_conjugate(random.Random(40), block_diag(*_NEAR_10_40), [1, -1] * 3, 300))
@settings(max_examples=150, deadline=None)
def test_symplectic_char_poly_is_the_general_char_poly_on_symplectic_actions(action):
    """Term for term, before normalization: the reciprocal route (g power
    sums, mirrored) and the general route (all 2g) give the same
    det(tI - A)."""
    assert _char_poly(action, action.rows // 2).terms == char_poly(action).terms


def test_symplectic_char_poly_on_dense_genus_8_conjugates():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(9)
    for multiplier in (100, 300):
        trefoils = block_diag(*[transvection([1, 1])] * 8)
        action = _large_conjugate(rng, trefoils, [1, -1] * 8, multiplier)
        assert all(10**6 < abs(x) for row in action.entries for x in row)
        assert _char_poly(action, 8).terms == char_poly(action).terms
        expected = sympy.Matrix(action.entries).charpoly(t).all_coeffs()
        assert char_poly(action) == LaurentPoly.from_dict(
            {16 - i: int(c) for i, c in enumerate(expected)})


def test_inverse_unimodular_rejects_other_matrices():
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0]], [[3, 1], [3, 1]]):
        with pytest.raises(MalformedInputError):
            inverse_unimodular(IntMatrix.from_rows(rows))
    with pytest.raises(RankMismatchError):
        inverse_unimodular(IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0))))
    assert inverse_unimodular(IntMatrix.identity(0)) == IntMatrix.identity(0)
    m = IntMatrix.from_rows([[0, -1], [1, 0]])
    assert inverse_unimodular(m) == m.neg()


def check_snf_contract(a: IntMatrix):
    d, u, v = smith_normal_form(a)
    assert u.mul(a).mul(v) == d
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    for i in range(len(nonzero) - 1):
        assert nonzero[i + 1] % nonzero[i] == 0
    if a.rows:
        assert abs(fraction_det(u)) == 1
    if a.cols:
        assert abs(fraction_det(v)) == 1


def test_snf_examples():
    d, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert [d.entries[0][0], d.entries[1][1]] == [1, 6]
    z = IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0)))
    d, u, v = smith_normal_form(z)
    assert d == z and u == IntMatrix.identity(2) and v == IntMatrix.identity(3)
    d, _, _ = smith_normal_form(IntMatrix.identity(3))
    assert d == IntMatrix.identity(3)


def test_snf_contract_random_5x5():
    rng = random.Random(97)
    for _ in range(120):
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)])
        check_snf_contract(a)


def test_snf_contract_rectangular():
    rng = random.Random(41)
    for _ in range(60):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)]
                                 for _ in range(r)]) if r else IntMatrix(0, c, ())
        check_snf_contract(a)


def test_smith_diagonal():
    assert smith_diagonal(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


@given(st.tuples(st.integers(0, 4), st.integers(0, 3)).flatmap(lambda shape: st.tuples(
    st.just(shape[0]), st.lists(st.lists(st.integers(-3, 3), min_size=sum(shape),
                                         max_size=sum(shape)), max_size=4))),
       st.integers(0, 4))
@settings(max_examples=200)
def test_pivot_is_the_first_entry_of_least_absolute_value(case, k):
    """The scan reads only the first `cols` columns, not the U that `_smith`
    carries after them, and stops at the first unit; a full scan of those
    columns picks the same entry."""
    cols, rows = case
    nonzero = [(i, j) for i in range(k, len(rows)) for j in range(k, cols) if rows[i][j]]
    assert _pivot(rows, k, cols) == min(nonzero, key=lambda p: abs(rows[p[0]][p[1]]),
                                        default=None)
    a = IntMatrix(len(rows), cols, [row[:cols] for row in rows])
    d, _, _ = smith_normal_form(a)
    assert smith_diagonal(a) == [d.entries[i][i] for i in range(min(a.rows, a.cols))]


SMITH_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 9, -9))


@st.composite
def smith_cases(draw):
    """Up to 8 x 8, many zeros, entries with common factors; some have a
    row that is a multiple of another, so they are rank-deficient."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    m = [draw(st.lists(SMITH_ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        c = draw(st.sampled_from((0, 1, -1, 2, -3)))
        m[i] = [c * x for x in m[j]]
    return m, cols


@given(smith_cases(), st.booleans())
@example(([[2, 0], [0, 3]], 2), True)  # the offender step: D = diag(1, 6)
@example(([[0, 0, 0], [0, 6, 0], [0, 0, 4], [0, 0, 0]], 3), True)  # zero row and column
@example(([[2, 4], [4, 8]], 2), False)  # rank 1
@example(([], 3), True)
@example(([[], []], 0), True)
@settings(max_examples=400)
def test_smith_matches_the_elimination_oracle(case, with_v):
    """`_smith` returns exactly the oracle's D, U and V."""
    m, cols = case
    expected = smith_elimination([list(r) for r in m], cols, with_v)
    assert _smith([list(r) for r in m], cols, with_v) == expected


def test_solve_int_and_row_span():
    a = IntMatrix.from_rows([[2, 0], [0, 4]])
    assert solve_int(a, (4, 8)) == (2, 2)
    assert solve_int(a, (1, 0)) is None
    basis = IntMatrix.from_rows([[1, 1, 0], [0, 2, 2]])
    assert in_row_span(basis, (1, 3, 2))
    assert not in_row_span(basis, (0, 1, 1))


def test_inverse_unimodular():
    m = IntMatrix.from_rows([[1, 2], [1, 3]])
    assert m.mul(inverse_unimodular(m)) == IntMatrix.identity(2)
    assert mirror(SurfaceMonodromy(1, m)).action == inverse_unimodular(m)
    with pytest.raises(Exception):
        inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_power_negative():
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert matrix_power(m, -2) == IntMatrix.from_rows([[1, -2], [0, 1]])
