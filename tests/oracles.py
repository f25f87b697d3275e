"""References that more than one test file checks the library against.  The
library inverts a symplectic action as -J A^T J and reads Lagrangian
compatibility off the a-rows; the general routines here are what those
shortcuts are checked against.  The two-bridge trefoil is a presentation
that no construction builds."""

from fibcalc.errors import MalformedInputError, RankMismatchError
from fibcalc.matrices import IntMatrix, smith_normal_form
from fibcalc.presentation import GroupPresentation
from fibcalc.words import FreeWord


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1, from the Smith witnesses:
    U A V = I gives A^-1 = V U."""
    if a.rows != a.cols:
        raise RankMismatchError("inverse of a non-square matrix")
    d, u, v = smith_normal_form(a)
    if d != IntMatrix.identity(a.rows):
        raise MalformedInputError("matrix is not unimodular")
    return v.mul(u)


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


def solve_int(a: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of A x = b, or None if none exists."""
    d, u, v = smith_normal_form(a)
    w = u.mul_vec(tuple(b))
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
    return v.mul_vec(tuple(z))


def in_row_span(basis: IntMatrix, vector) -> bool:
    """Whether the vector lies in the integer row span of `basis`."""
    return solve_int(basis.transpose(), tuple(vector)) is not None


def trefoil_two_bridge_presentation() -> GroupPresentation:
    """The 2-bridge presentation < u, v | u v u = v u v > of the trefoil
    group: the one presentation in the tests that is not an HNN extension,
    an independent cross-check of the HNN form."""
    return GroupPresentation(("u", "v"), (FreeWord(2, (1, 2, 1, -2, -1, -2)),))
