"""Reference values for checking fibcalc's outputs, computed without fibcalc.

Everything here is derived from the conventions stated in the project README:
the homology basis [a1], [b1], ..., [ag], [bg] with <ai, bi> = +1, a
right-handed Dehn twist acting by x -> x + <x, c> c, and Alexander
polynomials normalized to lowest exponent 0 with a positive leading
coefficient.  Matrices are lists of rows of Python integers.
"""

from __future__ import annotations

from itertools import product

# Alexander polynomials of the genus-1 catalog knots, coefficients from t^0 up.
KNOWN_ALEXANDER = {
    "trefoil_R": [1, -1, 1],
    "trefoil_L": [1, -1, 1],
    "figure8": [1, -3, 1],
}

# Homology classes of the catalog Stallings curves on the square-knot fiber:
# [b1] and -[b2], and their orientation reversals.
STALLINGS_CLASSES = {
    "square_knot_stallings_c1": (0, 1, 0, 0),
    "square_knot_stallings_c1_neg": (0, -1, 0, 0),
    "square_knot_stallings_c2": (0, 0, 0, -1),
    "square_knot_stallings_c2_neg": (0, 0, 0, 1),
}


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def block_diag(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def pairing(x, y):
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(len(x) // 2))


def twist(c, m=1):
    """Matrix of x -> x + m <x, c> c acting on column vectors."""
    n = len(c)
    basis = identity(n)
    cols = [[x + m * pairing(e, c) * ci for x, ci in zip(e, c)] for e in basis]
    return [list(row) for row in zip(*cols)]


def _catalog_actions():
    ta, tb = twist((1, 0)), twist((0, 1))
    tb_inv = twist((0, 1), -1)
    right = matmul(ta, tb)
    left = [[right[1][1], -right[0][1]], [-right[1][0], right[0][0]]]  # inverse, det 1
    return {"trefoil_R": right, "trefoil_L": left, "figure8": matmul(ta, tb_inv)}


CATALOG_ACTIONS = _catalog_actions()
CATALOG_ACTIONS["square_knot"] = block_diag(CATALOG_ACTIONS["trefoil_R"],
                                            CATALOG_ACTIONS["trefoil_L"])


def sum_action(names):
    """Homological monodromy of the connected sum of genus-1 catalog knots."""
    out = CATALOG_ACTIONS[names[0]]
    for name in names[1:]:
        out = block_diag(out, CATALOG_ACTIONS[name])
    return out


def stallings_action(curve, m):
    """Square knot after m Stallings twists along a catalog curve."""
    return matmul(CATALOG_ACTIONS["square_knot"], twist(STALLINGS_CLASSES[curve], m))


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def alexander_of_sum(names):
    out = [1]
    for name in names:
        out = poly_mul(out, KNOWN_ALEXANDER[name])
    return out


def normalize(coeffs):
    """Strip zero ends and make the leading coefficient positive."""
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    out = list(coeffs[lo:hi + 1])
    return out if out[-1] > 0 else [-c for c in out]


def char_poly(a):
    """Coefficients of det(tI - A) from t^0 up (Faddeev-LeVerrier; every
    division is exact over the integers)."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = matmul(a, m)
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = matmul(a, m)
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) // k
    return coeffs


def det(a):
    """Integer determinant by cofactor expansion (matrices here are tiny)."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def hom_count_cyclic(action, k):
    """Homomorphisms from the mapping-torus group of a fiber automorphism
    with abelianization `action` onto Z_k.  The group's abelianization is
    Z + coker(A - I), so the count is k times the number of y in (Z_k)^n
    with y (A - I) = 0 mod k."""
    n = len(action)
    shifted = [[action[i][j] - (i == j) for j in range(n)] for i in range(n)]
    solutions = sum(1 for y in product(range(k), repeat=n)
                    if all(sum(y[i] * shifted[i][j] for i in range(n)) % k == 0
                           for j in range(n)))
    return k * solutions


def h1_torsion_order(action):
    """|coker(A - I)|, the order of the torsion of H1 of the mapping torus."""
    n = len(action)
    return abs(det([[action[i][j] - (i == j) for j in range(n)] for i in range(n)]))


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def cyclic_cover_torsion(n):
    """|tors H1| of the n-fold cyclic cover of the figure-8 exterior: L_2n - 2."""
    return lucas(2 * n) - 2
