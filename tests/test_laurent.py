import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc.errors import MalformedInputError
from fibcalc.laurent import LaurentPoly, laurent_gcd, normalize_alexander
from fibcalc.matrices import laurent_det
from oracles import laurent_product


def poly(d):
    return LaurentPoly.from_dict(d)


def mono(e, c=1):
    """The monomial c t^e."""
    return LaurentPoly(((e, c),))


def test_zero_and_storage():
    assert poly({}).is_zero
    assert poly({3: 0}).is_zero
    assert poly({0: 1, 2: -1}).terms == ((0, 1), (2, -1))


_HUGE_POWER_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
sys.path.insert(0, sys.argv[1])
from fibcalc.laurent import LaurentPoly
from fibcalc.matrices import laurent_det
p = LaurentPoly(((0, 1), (10**19, 1)))
for call in (lambda: p.evaluate(2), lambda: laurent_det([[p]])):
    try:
        call()
    except Exception as exc:
        print(type(exc).__name__, exc)
print(p.evaluate(1), p.evaluate(-1))
"""


def test_sizes_past_maxsize_are_named_before_any_power_is_built():
    """1 + t^(10^19) at 2, and as a 1 x 1 determinant, would need an
    integer of more than sys.maxsize bits: each is a library error naming
    the size, not a MemoryError, in a child process capped at 1 GB."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-I", "-c", _HUGE_POWER_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == [
        "MalformedInputError power bit length 10000000000000000000 is too large",
        "MalformedInputError degree span 10000000000000000000 is too large",
        "2 2"]


def test_evaluate():
    p = poly({-1: 2, 2: 5})
    assert p.evaluate(1) == 7
    assert p.evaluate(-1) == 3
    with pytest.raises(MalformedInputError):
        p.evaluate(2)


def test_normalize_examples():
    # -t^3 + t^2 normalizes to t - 1 (unit -t^-2)
    assert normalize_alexander(poly({3: -1, 2: 1})) == poly({1: 1, 0: -1})
    assert normalize_alexander(poly({0: 1})) == poly({0: 1})
    with pytest.raises(MalformedInputError):
        normalize_alexander(LaurentPoly())


def test_normalize_palindromic_input():
    n = normalize_alexander(poly({-1: 1, 0: -1, 1: 1}))
    assert n.dense_coeffs() == n.dense_coeffs()[::-1]
    assert n == poly({0: 1, 1: -1, 2: 1})


units = st.tuples(st.sampled_from([1, -1]), st.integers(-4, 4))
polys = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), min_size=1).map(poly)


@given(polys, units)
def test_normalize_kills_units(p, unit):
    sign, k = unit
    if p.is_zero:
        return
    q = p.shift(k) if sign > 0 else -p.shift(k)
    assert normalize_alexander(p) == normalize_alexander(q)


@given(polys)
def test_normalized_shape(p):
    if p.is_zero:
        return
    n = normalize_alexander(p)
    assert n.min_exp == 0
    assert n.terms[-1][1] > 0


def test_gcd_simple():
    p = poly({0: -1, 2: 1})            # t^2 - 1
    q = poly({0: 1, 1: 2, 2: 1})       # (t+1)^2
    assert laurent_gcd(p, q) == poly({0: 1, 1: 1})
    assert laurent_gcd(p, LaurentPoly()) == normalize_alexander(p)


@given(polys, polys, polys)
def test_gcd_common_divisor_property(a, b, c):
    # gcd(ac, bc) divides both inputs and is divisible by c; checked by
    # integer evaluation at several points (poly divisibility implies
    # pointwise divisibility)
    ac, bc = laurent_product(a, c), laurent_product(b, c)
    if ac.is_zero or bc.is_zero:
        return
    g = laurent_gcd(ac, bc)
    nc = normalize_alexander(c)
    for t0 in (2, 3, 5):
        gv = g.evaluate(t0) if g.min_exp >= 0 else g.shift(-g.min_exp).evaluate(t0)
        av = ac.shift(-ac.min_exp).evaluate(t0)
        bv = bc.shift(-bc.min_exp).evaluate(t0)
        cv = nc.evaluate(t0)
        if gv == 0:
            assert av == 0 and bv == 0  # g divides both, so they share the root
        else:
            assert av % gv == 0
            assert bv % gv == 0
            if cv != 0:
                assert gv % cv == 0


def test_dense_coeffs():
    assert poly({0: 1, 2: 3}).dense_coeffs() == [1, 0, 3]
    assert LaurentPoly().dense_coeffs() == []


# --------------------------------------------------------------------------
# The Bareiss-over-Z[t] kernel that laurent_det replaced, kept as its oracle
# --------------------------------------------------------------------------

def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def exact_div(a, b):
    """The quotient a / b in Z[t] of dense coefficient lists (lowest degree
    first).  Raises unless b is nonzero and divides a exactly."""
    a, b = _strip(list(a)), _strip(list(b))
    if not b:
        raise MalformedInputError("division by the zero polynomial")
    lead, nb = b[-1], len(b)
    q = [0] * max(len(a) - nb + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + nb - 1] // lead  # a remainder stays in a and fails the check below
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    if any(a):
        raise MalformedInputError("polynomial division is not exact")
    return q


def _mul_sub(a, b, c, d):
    """a*b - c*d for dense coefficient lists, lowest degree first."""
    out = [0] * max(len(a) + len(b), len(c) + len(d))
    for sign, (p, q) in ((1, (a, b)), (-1, (c, d))):
        for i, x in enumerate(p):
            if x:
                x *= sign
                for j, y in enumerate(q):
                    out[i + j] += x * y
    return _strip(out)


def bareiss_laurent_det(grid):
    """Fraction-free Bareiss elimination over Z[t] on dense coefficient
    lists, after moving each row's lowest exponent to 0."""
    n = len(grid)
    if n == 0:
        return LaurentPoly(((0, 1),))
    shift = 0
    m = []
    for row in grid:
        live = [p.min_exp for p in row if not p.is_zero]
        if not live:
            return LaurentPoly()
        low = min(live)
        shift += low
        m.append([[] if p.is_zero else [0] * (p.min_exp - low) + p.dense_coeffs()
                  for p in row])
    sign, prev = 1, [1]
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return LaurentPoly()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = exact_div(_mul_sub(row[j], pivot, lead, pivot_row[j]), prev)
        prev = pivot
    return LaurentPoly(tuple((e + shift, sign * c) for e, c in enumerate(m[n - 1][n - 1])))


def test_exact_div_examples():
    assert exact_div([-1, 0, 1], [-1, 1]) == [1, 1]  # (t^2 - 1) / (t - 1)
    assert exact_div([0, 0, 6], [0, 3]) == [0, 2]
    assert exact_div([], [5]) == []
    assert exact_div([4, 0, 0], [2, 0]) == [2]  # trailing zeros are ignored


@pytest.mark.parametrize("a, b", [
    ([1, 0, 1], [1, 1]),  # t^2 + 1 is not a multiple of t + 1
    ([3], [2]),  # the integer quotient is not exact
    ([1, 2], [0, 1, 1]),  # divisor of higher degree
    ([2, 4], [0, 2]),  # quotient terms are integers, remainder is not zero
    ([1, 1], []),
    ([1, 1], [0, 0]),
])
def test_exact_div_raises_on_inexact_input(a, b):
    with pytest.raises(MalformedInputError):
        exact_div(a, b)


@given(st.lists(st.integers(-20, 20), max_size=6),
       st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(lambda b: b[-1]))
def test_exact_div_inverts_multiplication(a, b):
    product = laurent_product(poly(dict(enumerate(a))), poly(dict(enumerate(b)))).terms
    dense = [0] * (len(a) + len(b))
    for e, c in product:
        dense[e] = c
    quotient = exact_div(dense, b)
    assert poly(dict(enumerate(quotient))) == poly(dict(enumerate(a)))


ZERO = LaurentPoly()
ENTRIES = st.one_of(
    st.just(ZERO),
    st.dictionaries(st.integers(-4, 4), st.integers(-10**9, 10**9),
                    min_size=1, max_size=3).map(poly))


@st.composite
def laurent_grids(draw):
    """Square grids of size 0..7, dense or with a zero row, a zero first
    column above some row (zero pivots), a vanishing leading 2 x 2 minor (a
    zero second pivot) or a duplicated row (a singular grid)."""
    n = draw(st.integers(0, 7))
    grid = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if not n:
        return grid
    shape = draw(st.sampled_from(("dense", "zero row", "zero pivots", "vanishing minor",
                                  "duplicate row")))
    i = draw(st.integers(0, n - 1))
    if shape == "zero row":
        grid[i] = [ZERO] * n
    elif shape == "zero pivots":
        for row in grid[:i + 1]:
            row[0] = ZERO
    elif shape == "vanishing minor" and n >= 2:
        c = draw(ENTRIES)
        grid[1][:2] = [laurent_product(c, grid[0][0]), laurent_product(c, grid[0][1])]
    elif shape == "duplicate row" and n >= 2:
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        grid[j] = list(grid[i])
    return grid


def test_laurent_det_digit_unpacking_is_tight():
    # 1 x 1: the bound H is the coefficient itself, the tightest case
    for k in range(1, 80):
        for c in (2**k, -2**k, 2**k - 1, -(2**k - 1)):
            for e in (-3, 0, 5):
                grid = [[mono(e, c)]]
                assert laurent_det(grid) == mono(e, c) == bareiss_laurent_det(grid)
    # a diagonal grid whose determinant's coefficient equals H = 3*5*17*257
    diagonal = [[mono(e, c) if i == j else ZERO for j in range(4)]
                for i, (e, c) in enumerate(((1, 3), (-2, -5), (0, 17), (4, -257)))]
    assert laurent_det(diagonal) == mono(3, 2**16 - 1)
    diagonal[1][1] = mono(-2, 5)
    assert laurent_det(diagonal) == mono(3, -(2**16 - 1))
    # (1 + t)^6: its coefficient 20 exceeds the product of the row maxima, 1
    binomial = [[poly({0: 1, 1: 1}) if i == j else ZERO for j in range(6)] for i in range(6)]
    assert laurent_det(binomial) == poly({k: comb(6, k) for k in range(7)})
    # all coefficients negative: (1 + 2t)(5 + 6t^3) - 3t^-1 * 4t^2
    negative = [[poly({0: -1, 1: -2}), poly({-1: -3})],
                [poly({2: -4}), poly({0: -5, 3: -6})]]
    assert laurent_det(negative) == bareiss_laurent_det(negative) \
        == poly({0: 5, 1: -2, 3: 6, 4: 12})
    # a single term at a negative exponent
    assert laurent_det([[mono(-7, -1)]]) == mono(-7, -1)
    assert laurent_det([[ZERO, mono(-2, 3)], [mono(-1), ZERO]]) == mono(-3, -3)


@given(laurent_grids())
@settings(max_examples=200, deadline=None)
def test_laurent_det_equals_the_bareiss_oracle(grid):
    assert laurent_det(grid) == bareiss_laurent_det(grid)
