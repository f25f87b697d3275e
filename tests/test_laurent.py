import pytest
from hypothesis import given, strategies as st

from fibcalc.errors import MalformedInputError
from fibcalc.laurent import LaurentPoly, exact_div, laurent_gcd, normalize_alexander


def poly(d):
    return LaurentPoly.from_dict(d)


def test_zero_and_storage():
    assert poly({}).is_zero
    assert poly({3: 0}).is_zero
    assert poly({0: 1, 2: -1}).terms == ((0, 1), (2, -1))


def test_arithmetic():
    p = poly({0: 1, 1: 1})
    q = poly({0: -1, 1: 1})
    assert p * q == poly({0: -1, 2: 1})
    assert p + q == poly({1: 2})
    assert p - p == LaurentPoly.zero()
    assert p**3 == poly({0: 1, 1: 3, 2: 3, 3: 1})


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
        normalize_alexander(LaurentPoly.zero())


def test_normalize_palindromic_input():
    p = poly({-1: 1, 0: -1, 1: 1})
    assert normalize_alexander(p) == normalize_alexander(p.reverse())
    assert normalize_alexander(p) == poly({0: 1, 1: -1, 2: 1})


units = st.tuples(st.sampled_from([1, -1]), st.integers(-4, 4))
polys = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), min_size=1).map(poly)


@given(polys, units)
def test_normalize_kills_units(p, unit):
    sign, k = unit
    if p.is_zero:
        return
    q = p.shift(k).scale(sign)
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
    assert laurent_gcd(p, LaurentPoly.zero()) == normalize_alexander(p)


@given(polys, polys, polys)
def test_gcd_common_divisor_property(a, b, c):
    # gcd(ac, bc) divides both inputs and is divisible by c; checked by
    # integer evaluation at several points (poly divisibility implies
    # pointwise divisibility)
    ac, bc = a * c, b * c
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
    assert LaurentPoly.zero().dense_coeffs() == []


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
    product = (poly(dict(enumerate(a))) * poly(dict(enumerate(b)))).terms
    dense = [0] * (len(a) + len(b))
    for e, c in product:
        dense[e] = c
    quotient = exact_div(dense, b)
    assert poly(dict(enumerate(quotient))) == poly(dict(enumerate(a)))
