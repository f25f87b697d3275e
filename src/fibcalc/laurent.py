"""Univariate Laurent polynomials over the integers, as results.

A polynomial is stored as a sorted tuple of (exponent, coefficient) pairs with
no zero coefficients; the empty tuple is 0.  Coefficients are exact Python
integers, which matters because Alexander coefficients grow quickly.

Each polynomial fibcalc computes is an Alexander polynomial or a minor on the
way to one, read off an integer (`matrices._from_digits`, `_char_poly`) or
loaded from JSON, so none is added, multiplied or powered.  The constructor
(and `from_dict`) checks that the terms are pairs of exact integers with
distinct exponents, and sorts them.  Negation and `shift`, the units that
`normalize_alexander` applies, reuse checked terms without a second check.
"""

from __future__ import annotations

from math import gcd

from .errors import (MalformedInputError, _check_int, _check_size, _check_type, _int_text,
                     _repr_text, _unchecked, frozen)


@frozen
class LaurentPoly:
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if type(self.terms) not in (tuple, list):
            raise MalformedInputError(f"Laurent terms {self.terms!r} are not a tuple or a list")
        nonzero = []
        for term in self.terms:
            if not (type(term) in (tuple, list) and len(term) == 2
                    and type(term[0]) is int and type(term[1]) is int):
                text = _repr_text(term, "Laurent term entry")
                raise MalformedInputError(f"Laurent term {text} is not a pair of integers")
            if term[1]:
                nonzero.append(tuple(term))
        fixed = tuple(sorted(nonzero))
        exps = [e for e, _ in fixed]
        if len(set(exps)) != len(exps):
            raise MalformedInputError("duplicate exponents in Laurent polynomial")
        object.__setattr__(self, "terms", fixed)

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        _check_type(coeffs, dict, "coefficients")
        return cls(tuple(coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise MalformedInputError("zero polynomial has no degree")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise MalformedInputError("zero polynomial has no degree")
        return self.terms[-1][0]

    def __neg__(self) -> "LaurentPoly":
        return _unchecked(LaurentPoly, tuple((e, -c) for e, c in self.terms))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        _check_int(k, "shift")
        return _unchecked(LaurentPoly, tuple((e + k, c) for e, c in self.terms))

    def evaluate(self, x: int) -> int:
        """Evaluate at a nonzero integer (negative exponents need x = +-1).
        x^e has about e (bit_length(|x|) - 1) bits, which no integer can
        have past sys.maxsize."""
        _check_int(x, "argument")
        if self.terms and abs(x) > 1:
            _check_size(self.terms[-1][0] * (abs(x).bit_length() - 1), "power bit length")
        total = 0
        for e, c in self.terms:
            if e >= 0:
                total += c * x**e
            else:
                if x not in (1, -1):
                    raise MalformedInputError("negative exponent at non-unit argument")
                total += c * x**(-e)
        return total

    def dense_coeffs(self) -> list[int]:
        """Coefficient list from min_exp upward (empty for 0)."""
        if self.is_zero:
            return []
        lo = self.min_exp
        span = self.max_exp - lo + 1
        _check_size(span, "degree span")
        out = [0] * span
        for e, c in self.terms:
            out[e - lo] = c
        return out

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                mono = _int_text(abs(c), "coefficient")
            else:
                head = "" if abs(c) == 1 else _int_text(abs(c), "coefficient") + "*"
                mono = head + ("t" if e == 1 else f"t^{_int_text(e, 'exponent')}")
            parts.append(("- " if c < 0 else "+ ") + mono)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Multiply by a unit +-t^k so the lowest term sits at exponent 0 and the
    leading (highest-degree) coefficient is positive.

    Alexander polynomials are only defined up to such units.
    """
    _check_type(p, LaurentPoly, "polynomial")
    if p.is_zero:
        raise MalformedInputError("cannot normalize the zero polynomial")
    q = p.shift(-p.min_exp)
    if q.terms[-1][1] < 0:
        q = -q
    return q


def _content(coeffs: list[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g


def _primitive(coeffs: list[int]) -> list[int]:
    g = _content(coeffs)
    return [c // g for c in coeffs] if g else list(coeffs)


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over Z[x] (little-endian dense lists)."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b) and _strip(a):
        shift = len(a) - len(b)
        la = a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        _strip(a)
    return a


def _gcd_dense(a: list[int], b: list[int]) -> list[int]:
    a, b = _strip(list(a)), _strip(list(b))
    if not a:
        return _primitive(b) if b else []
    if not b:
        return _primitive(a)
    ca, cb = _content(a), _content(b)
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _primitive(_strip(_pseudo_rem(a, b)))
        a, b = b, r
    g = [c * gcd(ca, cb) for c in a]
    if g[-1] < 0:
        g = [-c for c in g]
    return g


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd in Z[t, t^-1], computed over Z[t] after clearing the unit t^min_exp.

    Result is defined up to units; it is returned with exponent-0 lowest term
    and positive leading coefficient.
    """
    _check_type(p, LaurentPoly, "polynomial")
    _check_type(q, LaurentPoly, "polynomial")
    if p.is_zero and q.is_zero:
        return LaurentPoly()
    if p.is_zero:
        return normalize_alexander(q)
    if q.is_zero:
        return normalize_alexander(p)
    g = _gcd_dense(p.shift(-p.min_exp).dense_coeffs(), q.shift(-q.min_exp).dense_coeffs())
    return normalize_alexander(LaurentPoly(tuple((e, c) for e, c in enumerate(g))))
