"""Exact integer matrices: products, determinants, characteristic polynomials,
and Smith normal form with unimodular witnesses.

Every algorithm is exact and polynomial in the size n.  Matrix products
(`IntMatrix.mul` and the Fox-route hom counts of `invariants`) run through
one `_product`, one `sum(map(mul, ...))` per entry, in C.  Characteristic
polynomials take one route, `_char_poly`: Newton's identities from the
power sums p_j = tr(A^j), whose divisions are exact, since every
coefficient is an integer.  No power of A is formed: the rows of A^j are
packed by Kronecker substitution, one integer each, so a step to A^(j+1)
is n inner products, and p_j is one digit of their shifted sum.
- `char_poly`, for any square matrix, forms all n power sums.  It serves the
  fiber rows of a script run (an abelianized handlebody map need not be
  symplectic and can have odd rank).
- A fibered knot's symplectic 2g x 2g action (`fibered.alexander_poly`)
  needs only g: its polynomial is reciprocal, c_(2g-k) = c_k, because
  A^-1 = -J A^T J is similar to A^T and det A = 1, so `_char_poly` mirrors
  c_0..c_(g-1).  On any other matrix that answer is wrong, so the route is
  private.
Integer determinants run by fraction-free Bareiss elimination (O(n^3)
integer operations, every division exact).  Determinants over
Z[t, t^-1] reduce to one integer determinant by Kronecker substitution: the
entries are evaluated at t = 2^B, with B large enough that the determinant's
coefficients are the signed base-2^B digits of the integer result, which
`_from_digits` reads.  `laurent_det` does this for a grid of `LaurentPoly`;
the Fox route of `invariants.alexander_from_presentation` evaluates its
entries straight from the letter counts of one walk over the relators and
shares only the Bareiss `det` and `_from_digits`.  The bound here: a row's
entries p_j, shifted to start at t^0, are polynomials, and the coefficient
norm |.|_1 is submultiplicative, so a determinant's norm is at most the
product over its rows of the row norms sum_j |p_j|_1.  A minor takes some
of the rows, cut to some of the columns, so the product over all rows of
max(1, row norm) bounds every minor at once; the max keeps a zero row from
making it 0.  The Fox route bounds the coefficients more tightly, by
Hadamard's inequality on the unit circle (see `invariants`).

Smith normal form runs one elimination, `_smith`, for `smith_normal_form`,
`smith_diagonal`, and in `invariants` for the H1 Smith form and Fox-route
hom counts of a presentation and for the H1 and hom counts of a mapping
torus read off its homology action; all but the first read no V, so it
is not accumulated for them.
It does no work whose result nobody reads: U changes only with the rows, so
it rides in them; a column operation changes only the pivot row of the
matrix; and a unit pivot, which divides everything, needs no scan for an
entry it does not divide.  The `_smith` docstring says why each holds.

The constructor (and `from_rows` and `identity`, which check their own
arguments and call it) checks the shape and that every entry is an exact
integer, and stores the entries as a tuple of tuples.  Arithmetic (`mul`,
`add`, `neg`, `transpose`, `block_diag`) and the D, U, V of
`smith_normal_form` check their operands' types and build their results
from checked entries without a second check, in the same tuple-of-tuples
form.
"""

from __future__ import annotations

from operator import lshift, mul
from typing import Sequence

from .errors import (MalformedInputError, RankMismatchError, _check_int, _check_sequence,
                     _check_size, _check_type, _unchecked, frozen)
from .laurent import LaurentPoly


@frozen
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int:
            raise MalformedInputError("matrix dimensions must be integers")
        if self.rows < 0 or self.cols < 0:
            raise MalformedInputError("negative matrix dimension")
        _check_size(self.cols, "matrix columns")
        if type(self.entries) not in (tuple, list) or len(self.entries) != self.rows:
            raise MalformedInputError("entries must be a tuple or a list of `rows` rows")
        fixed = []
        for row in self.entries:
            if type(row) not in (tuple, list):
                raise MalformedInputError(f"matrix row {row!r} is not a tuple or a list")
            row = tuple(row)
            if len(row) != self.cols:
                raise MalformedInputError("ragged matrix rows")
            for x in row:
                if type(x) is not int:
                    raise MalformedInputError(f"matrix entry {x!r} is not an integer")
            fixed.append(row)
        object.__setattr__(self, "entries", tuple(fixed))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        _check_sequence(rows, "matrix rows")
        cols = len(rows[0]) if rows and type(rows[0]) in (tuple, list) else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_int(n, "matrix size")
        _check_size(n, "matrix size")
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return _matrix(self.cols, self.rows, [[row[j] for row in self.entries]
                                              for j in range(self.cols)])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        _check_type(other, IntMatrix, "matrix operand")
        if self.cols != other.rows:
            raise RankMismatchError("matrix product dimension mismatch")
        columns = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        return _matrix(self.rows, other.cols, _product(self.entries, columns))

    def add(self, other: "IntMatrix") -> "IntMatrix":
        _check_type(other, IntMatrix, "matrix operand")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise RankMismatchError("matrix sum dimension mismatch")
        return _matrix(self.rows, self.cols, [[a + b for a, b in zip(r1, r2)]
                                              for r1, r2 in zip(self.entries, other.entries)])

    def neg(self) -> "IntMatrix":
        return _matrix(self.rows, self.cols, [[-a for a in row] for row in self.entries])

    def det(self) -> int:
        """Fraction-free (Bareiss 1968) determinant.  Each step replaces the
        block below and right of the pivot by the 2 x 2 minors it forms with
        the pivot, divided by the previous pivot; the division is exact,
        since each new entry is a minor of the matrix.  A zero pivot swaps in
        a lower row and flips the sign."""
        if self.rows != self.cols:
            raise RankMismatchError("determinant of a non-square matrix")
        m = list(self.entries)
        sign, prev = 1, 1
        while len(m) > 1:
            swap = next((i for i, row in enumerate(m) if row[0]), None)
            if swap is None:
                return 0
            if swap:
                m[0], m[swap] = m[swap], m[0]
                sign = -sign
            pivot, *top = m[0]
            m = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top)]
                 for row in m[1:]]
            prev = pivot
        return sign * m[0][0] if m else 1

def _matrix(rows: int, cols: int, data) -> IntMatrix:
    """The rows x cols matrix with rows `data`, lists or tuples of exact
    integers derived from checked matrices."""
    return _unchecked(IntMatrix, rows, cols, tuple(map(tuple, data)))


def _product(rows, columns) -> list[list[int]]:
    """The product of the matrices with rows `rows` and columns `columns`,
    as a list of rows: one inner product per entry, in C.  It has
    len(columns) columns, also when the inner dimension is 0 and each
    column is empty."""
    return [[sum(map(mul, row, col)) for col in columns] for row in rows]


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    for b in blocks:
        _check_type(b, IntMatrix, "block")
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.entries[i][j]
        r0 += b.rows
        c0 += b.cols
    return _matrix(rows, cols, out)


def laurent_det(grid: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square grid of Laurent polynomials, by Kronecker
    substitution: one integer determinant at t = 2^B.

    Each row is multiplied by the power of t that moves its lowest exponent
    to 0, so every entry p is a polynomial.  H, the product over the rows of
    the sum of the entries' coefficient norms |p|_1, bounds every
    coefficient of the determinant, since |det|_1 <= sum over permutations
    s of prod_i |p_i,s(i)|_1 <= H.  With B = H.bit_length() + 1 each
    coefficient lies in (-2^(B-1), 2^(B-1)).  Evaluation at 2^B is a ring
    homomorphism Z[t] -> Z, so the integer determinant of the entries
    p(2^B) (by `IntMatrix.det`) is det(p)(2^B), and its signed base-2^B
    digits are the coefficients, read off exactly by `_from_digits`.  The
    row shifts come back as one factor t^k.
    """
    _check_sequence(grid, "grid")
    n = len(grid)
    for row in grid:
        _check_sequence(row, "grid row")
        if len(row) != n:
            raise RankMismatchError("determinant of a non-square grid")
        for p in row:
            _check_type(p, LaurentPoly, "grid entry")
    shift, bound, rows = 0, 1, []
    for row in grid:
        live = [p.min_exp for p in row if not p.is_zero]
        if not live:
            return LaurentPoly()
        low = min(live)
        _check_size(max(p.max_exp for p in row if not p.is_zero) - low, "degree span")
        shift += low
        bound *= sum(abs(c) for p in row for _, c in p.terms)
        rows.append((low, row))
    b = bound.bit_length() + 1
    return _from_digits(_matrix(n, n, [[sum(c << b * (e - low) for e, c in p.terms) for p in row]
                                       for low, row in rows]).det(), b, shift)


def _from_digits(value: int, b: int, shift: int) -> LaurentPoly:
    """The Laurent polynomial sum of d_i t^(shift + i) whose value at t = 2^b
    is value * 2^(b * shift), for digits d_i in [-2^(b-1), 2^(b-1)): the
    signed base-2^b digits of `value`, lowest first."""
    half, mask, terms = 1 << (b - 1), (1 << b) - 1, []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << b
        if digit:
            terms.append((shift, digit))
        value = (value - digit) >> b
        shift += 1
    return _unchecked(LaurentPoly, tuple(terms))


def char_poly(a: IntMatrix) -> LaurentPoly:
    """det(tI - A) with exact integer coefficients, from the power sums
    tr(A^j), j <= n, by Newton's identities: n packed steps of `_char_poly`."""
    _check_type(a, IntMatrix, "matrix")
    if a.rows != a.cols:
        raise RankMismatchError("characteristic polynomial of a non-square matrix")
    return _char_poly(a, a.rows)


def _char_poly(a: IntMatrix, sums: int) -> LaurentPoly:
    """det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n for an n x n matrix A,
    from its first `sums` power sums p_j = tr(A^j) by Newton's identities
    k c_k = -sum_(i<=k) p_i c_(k-i).  With sums < n, c_(sums+1)..c_n are
    mirrored, c_(n-k) = c_k: right only when the polynomial is reciprocal,
    as for sums = g on a symplectic 2g x 2g matrix.

    Row k of A^j is packed as u_k = sum_l (A^j)_kl X^l at X = 2^w, so
    u -> A u, one inner product per row, steps j to j + 1.  Shifted to
    u_k X^(n-1-k), the diagonal entries all land on X^(n-1), and that digit
    is p_j.  Each digit sums at most n entries of A^j, each at most r^j in
    size for r = ||A||_inf, the largest row sum of |a_kl|, so with
    w = bit_length(n r^sums) + 2 every digit is inside (-2^(w-2), 2^(w-2)),
    and the lower digits together less than X^(n-1) / 4.  Adding X^(n-1) / 2
    keeps them from borrowing from digit n-1, and adding 2^(w-1) to that
    digit puts it in [0, 2^w), where one shift and one mask read it."""
    n, m = a.rows, a.entries
    r = max((sum(map(abs, row)) for row in m), default=0)
    w = (n * r ** sums).bit_length() + 2
    low, half = w * max(n - 1, 0), 1 << (w - 1)
    bias, mask = (half << low) + ((1 << low) >> 1), (1 << w) - 1
    shifts = range(low, -1, -w)
    u = [1 << w * k for k in range(n)]
    traces = []
    for _ in range(sums):
        u = [sum(map(mul, row, u)) for row in m]
        traces.append((((sum(map(lshift, u, shifts)) + bias) >> low) & mask) - half)
    coeffs = [1]
    for k in range(1, sums + 1):
        coeffs.append(-sum(map(mul, traces, reversed(coeffs))) // k)
    coeffs += reversed(coeffs[:n - sums])
    return _unchecked(LaurentPoly, tuple((i, c) for i, c in enumerate(reversed(coeffs)) if c))


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*A*V = D, D diagonal with d_i | d_{i+1} and
    d_i >= 0, and U, V unimodular."""
    _check_type(a, IntMatrix, "matrix")
    rows, cols = a.rows, a.cols
    m, u, v = _smith([list(r) for r in a.entries], cols, True)
    return _matrix(rows, cols, m), _matrix(rows, rows, u), _matrix(cols, cols, v)


def smith_diagonal(a: IntMatrix) -> list[int]:
    _check_type(a, IntMatrix, "matrix")
    m, _, _ = _smith([list(r) for r in a.entries], a.cols, False)
    return [m[i][i] for i in range(min(a.rows, a.cols))]


def _smith(m: list[list[int]], cols: int, with_v: bool):
    """The elimination of `smith_normal_form` on the rows `m` of a matrix
    with `cols` columns, in place: returns (D, U, V) as lists of rows, with
    V empty unless `with_v`, for the callers that never read it.

    U = (row operations applied to I) changes exactly when the rows do, so
    row i carries row i of U after column `cols`, starting as e_i: a row
    operation, swap or negation is one pass over one list, and D and U are
    the two halves of the rows.  A column operation col_j -= q col_k runs
    once column k is zero off the pivot: the rows below were just cleared,
    and each row above was cleared right of its own pivot before k moved
    past it.  So in the matrix it changes only m[k][j], and besides that
    only the columns of V.  The scan of the block for an entry the pivot
    does not divide, which makes d_k | d_(k+1), runs only behind a pivot
    other than +-1: a unit divides every entry."""
    rows = len(m)
    for i, row in enumerate(m):
        row += [0] * rows
        row[cols + i] = 1
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if with_v else []
    k = 0
    while k < min(rows, cols):
        pivot = _pivot(m, k, cols)
        if pivot is None:
            break
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        if j != k:
            for r in m[k:] + v:  # rows above k are zero from column k on
                r[k], r[j] = r[j], r[k]
        # clear the pivot column first; afterwards clearing the pivot row by
        # column ops has no fill-in below row k.  Any nonzero remainder is
        # strictly smaller than the pivot, so restarting terminates.
        top = m[k]
        p = top[k]
        for i in range(k + 1, rows):
            q = m[i][k] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], top)]
        if any(m[i][k] for i in range(k + 1, rows)):
            continue
        for j in range(k + 1, cols):
            q = top[j] // p
            if q:
                top[j] -= q * p
                for r in v:
                    r[j] -= q * r[k]
        if any(top[k + 1:cols]):
            continue
        # make the pivot divide the whole remaining block, which yields the
        # divisibility chain d_k | d_{k+1} for free
        if p not in (1, -1):
            offender = next((i for i in range(k + 1, rows)
                             if any(x % p for x in m[i][k + 1:cols])), None)
            if offender is not None:
                m[k] = [x + y for x, y in zip(top, m[offender])]
                continue
        if p < 0:
            m[k] = [-x for x in top]
        k += 1
    return [r[:cols] for r in m], [r[cols:] for r in m], v


def _pivot(m: list[list[int]], k: int, cols: int) -> tuple[int, int] | None:
    """The position of the first entry of least absolute value, in row-major
    order, among the nonzero entries of the first `cols` columns below and
    right of (k, k); None if there are none.  The rows of `_smith` carry U
    after column `cols`, which the scan never reads.  A unit is least, so
    the scan stops at the first one."""
    best, pivot = 0, None
    for i in range(k, len(m)):
        row = m[i]
        for j in range(k, cols):
            x = abs(row[j])
            if x and (pivot is None or x < best):
                if x == 1:
                    return i, j
                best, pivot = x, (i, j)
    return pivot
