"""References that more than one test file checks the library against.  The
library inverts a symplectic action as -J A^T J, reads Lagrangian
compatibility off the a-rows, takes Fox-route determinants of integers and
runs a Smith elimination that skips work nobody reads; the general routines
here are what those shortcuts are checked against.  A fiber row read off
the homology action is checked against H1 and the hom counts of the HNN
presentation.  Rows of the group-ring Fox matrix are checked against Fox's
fundamental formula.  The two-bridge trefoil is a presentation that no
construction builds."""

from collections import Counter
from itertools import combinations

from fibcalc.errors import AbelianizationError, MalformedInputError, RankMismatchError
from fibcalc.invariants import (_fox_columns, count_homs, finite_group, fox_matrix, h1,
                                infinite_cyclic_exponents)
from fibcalc.laurent import LaurentPoly, laurent_gcd, normalize_alexander
from fibcalc.matrices import IntMatrix, laurent_det, smith_normal_form
from fibcalc.mcg import transvection
from fibcalc.presentation import GroupPresentation
from fibcalc.script import REPORT_GROUPS
from fibcalc.words import FreeWord, handlebody_names


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1, from the Smith witnesses:
    U A V = I gives A^-1 = V U."""
    if a.rows != a.cols:
        raise RankMismatchError("inverse of a non-square matrix")
    d, u, v = smith_normal_form(a)
    if d != IntMatrix.identity(a.rows):
        raise MalformedInputError("matrix is not unimodular")
    return v.mul(u)


def presentation_invariants(presentation: GroupPresentation, names=REPORT_GROUPS) -> tuple:
    """(H1 factors, (name, hom count) for each group name) of a presentation,
    by the public `h1` and `count_homs`: the presentation route of a fiber
    row, with its memo serving H1 and every count."""
    return (tuple(h1(presentation)),
            tuple((name, count_homs(presentation, finite_group(name))) for name in names))


def dense_symplectic(rng, genus: int) -> IntMatrix:
    """A product of random transvections, redrawn until no entry is zero."""
    while True:
        p = IntMatrix.identity(2 * genus)
        for _ in range(genus + 2):
            p = p.mul(transvection([rng.choice((-1, 0, 1)) for _ in range(2 * genus)],
                                   rng.choice((-1, 1))))
        if all(x for row in p.entries for x in row):
            return p


def matrix_power(a: IntMatrix, n: int) -> IntMatrix:
    """A^n by repeated squaring; a negative n inverts A first."""
    if n < 0:
        return matrix_power(inverse_unimodular(a), -n)
    out = IntMatrix.identity(a.rows)
    while n:
        if n & 1:
            out = out.mul(a)
        a = a.mul(a)
        n >>= 1
    return out


def mul_vec(a: IntMatrix, v) -> tuple[int, ...]:
    """The product A v of a matrix and a vector of its column count."""
    assert len(v) == a.cols
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def solve_int(a: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of A x = b, or None if none exists."""
    d, u, v = smith_normal_form(a)
    w = mul_vec(u, tuple(b))
    z = [0] * a.cols
    for i in range(a.rows):
        di = d.entries[i][i] if i < min(a.rows, a.cols) else 0
        if di == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % di != 0:
                return None
            z[i] = w[i] // di
    return mul_vec(v, tuple(z))


def in_row_span(basis: IntMatrix, vector) -> bool:
    """Whether the vector lies in the integer row span of `basis`."""
    return solve_int(basis.transpose(), tuple(vector)) is not None


def trefoil_two_bridge_presentation() -> GroupPresentation:
    """The 2-bridge presentation < u, v | u v u = v u v > of the trefoil
    group: the one presentation in the tests that is not an HNN extension,
    an independent cross-check of the HNN form."""
    return GroupPresentation(("u", "v"), (FreeWord(2, (1, 2, 1, -2, -1, -2)),))


def fox_derivatives(word: FreeWord) -> list[dict[FreeWord, int]]:
    """The Fox derivatives of a word by every generator, in Z[F]: the one
    row of `fox_matrix` on the presentation <x_1, ..., x_n | word>."""
    return fox_matrix(GroupPresentation(handlebody_names(word.rank), (word,)))[0]


def fox_formula_gap(relator: FreeWord, row) -> dict[FreeWord, int]:
    """sum_j (dr/dx_j)(x_j - 1) - (r - 1) in Z[F] for a row of `fox_matrix`,
    as {word: nonzero coefficient}: empty exactly when Fox's fundamental
    formula holds for the row."""
    gap: Counter = Counter()
    for j, entry in enumerate(row, 1):
        xj = FreeWord(relator.rank, (j,))
        for word, c in entry.items():
            gap[word * xj] += c
            gap[word] -= c
    gap[relator] -= 1
    gap[FreeWord(relator.rank, ())] += 1
    return {word: c for word, c in gap.items() if c}


def fox_row(word: FreeWord, exponents) -> list[LaurentPoly]:
    """The abelianized Fox derivatives of a word by every generator, as
    Laurent polynomials: entry j is the image of its Fox derivative by
    x_(j+1) under generator i -> t^exponents[i], read off `_fox_columns`."""
    return [LaurentPoly.from_dict(column) for column in _fox_columns(word.letters, exponents)]


def laurent_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The product of two Laurent polynomials, term by term: the reference
    for the multiplicativity of Alexander polynomials (connected sums, block
    sums), which the library never multiplies."""
    acc: dict[int, int] = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly.from_dict(acc)


def alexander_by_grid(presentation: GroupPresentation, assignment=None) -> LaurentPoly:
    """The Fox-route Alexander polynomial through Laurent polynomials: one
    `fox_row` per relator, the meridian column deleted, a
    `laurent_det` per maximal minor and the gcd of the nonzero minors.  A
    supplied assignment is trusted."""
    n = presentation.n_generators
    exps = infinite_cyclic_exponents(presentation) if assignment is None else tuple(assignment)
    if n == 1:  # a relator killed by the assignment is the empty word
        return LaurentPoly(((0, 1),))
    meridian = next((j for j, e in enumerate(exps) if abs(e) == 1), None)
    if meridian is None:
        raise AbelianizationError("no generator maps onto t^(+-1)")
    grid = [[p for j, p in enumerate(fox_row(rel, exps)) if j != meridian]
            for rel in presentation.relators]
    r, k = len(grid), n - 1
    if r < k:
        return LaurentPoly()
    gcd_acc = LaurentPoly()
    for rows in combinations(range(r), k):
        minor = laurent_det([grid[i] for i in rows])
        if not minor.is_zero:
            gcd_acc = laurent_gcd(gcd_acc, minor)
            if gcd_acc == LaurentPoly(((0, 1),)):
                return gcd_acc
    return LaurentPoly() if gcd_acc.is_zero else normalize_alexander(gcd_acc)


def smith_elimination(m: list[list[int]], cols: int, with_v: bool):
    """The Smith elimination with U kept apart, every column operation over
    every row and a divisibility scan behind every pivot, which
    `matrices._smith` must match entry for entry.  Same contract, in place
    on the rows `m` of a matrix with `cols` columns: returns (D, U, V) as
    lists of rows, V empty unless `with_v`."""
    rows = len(m)
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if with_v else []

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    limit = min(rows, cols)
    k = 0
    while k < limit:
        pivot = _first_least(m, k)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear the pivot column first; afterwards clearing the pivot row by
        # column ops has no fill-in below row k.  Any nonzero remainder is
        # strictly smaller than the pivot, so restarting terminates.
        for i in range(k + 1, rows):
            if m[i][k]:
                row_op(i, k, m[i][k] // m[k][k])
        if any(m[i][k] for i in range(k + 1, rows)):
            continue
        for j in range(k + 1, cols):
            if m[k][j]:
                col_op(j, k, m[k][j] // m[k][k])
        if any(m[k][j] for j in range(k + 1, cols)):
            continue
        # make the pivot divide the whole remaining block, which yields the
        # divisibility chain d_k | d_{k+1} for free
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] % m[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # row_k += row_offender
            continue
        if m[k][k] < 0:
            negate_row(k)
        k += 1
    return m, u, v


def _first_least(m: list[list[int]], k: int) -> tuple[int, int] | None:
    """The position of the first entry of least absolute value, in row-major
    order, among the nonzero entries below and right of (k, k); None if
    there are none.  A unit is least, so the scan stops at the first one."""
    best, pivot = 0, None
    for i in range(k, len(m)):
        row = m[i]
        for j in range(k, len(row)):
            x = abs(row[j])
            if x and (pivot is None or x < best):
                if x == 1:
                    return i, j
                best, pivot = x, (i, j)
    return pivot


def substitute_by_products(images, word: FreeWord) -> FreeWord:
    """f(word) for the map f: x_i -> images[i-1], multiplied out one
    `FreeWord` at a time: what `apply_map` and `compose` substitute through
    letter tables."""
    out = FreeWord(word.rank, ())
    for letter in word.letters:
        image = images[abs(letter) - 1]
        out = out * (image if letter > 0 else image.inverse())
    return out
