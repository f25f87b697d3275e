"""Presentation-level invariants: Fox calculus, Alexander polynomials from
presentations, homology via Smith normal form, and exact counting of
homomorphisms into small finite groups.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

from .errors import (AbelianizationError, BudgetExceededError, CatalogError,
                     MalformedInputError)
from .laurent import LaurentPoly, laurent_gcd, normalize_alexander
from .matrices import IntMatrix, laurent_det, smith_diagonal, smith_normal_form
from .presentation import GroupPresentation
from .words import FreeWord

DEFAULT_HOM_BUDGET = 10**8
_BUDGET_ENV = "FIBCALC_HOM_BUDGET"


def default_hom_budget() -> int:
    value = os.environ.get(_BUDGET_ENV)
    if value is not None:
        try:
            return int(value)
        except ValueError:
            raise MalformedInputError(f"{_BUDGET_ENV} must be an integer") from None
    return DEFAULT_HOM_BUDGET


class GroupRingElement:
    """Formal integer combination of free-group words (an element of Z[F])."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: dict[FreeWord, int] | None = None):
        self.rank = rank
        self.coeffs = {w: c for w, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls, rank: int) -> "GroupRingElement":
        return cls(rank)

    @classmethod
    def of_word(cls, word: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return cls(word.rank, {word: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc.get(w, 0) + c
        return GroupRingElement(self.rank, acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.rank, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def word_mul(self, word: FreeWord) -> "GroupRingElement":
        """Left-multiply every term by a word."""
        return GroupRingElement(self.rank, {word * w: c for w, c in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{list(w.letters)}" for w, c in sorted(
            self.coeffs.items(), key=lambda item: item[0].letters))


def fox_derivative(word: FreeWord, index: int) -> GroupRingElement:
    """Fox derivative with respect to the index-th generator:
    d(uv) = du + u dv, d(x_j) = 1, d(x_j^-1) = -x_j^-1."""
    if not 1 <= index <= word.rank:
        raise MalformedInputError("generator index out of range")
    total = GroupRingElement.zero(word.rank)
    prefix = FreeWord.identity(word.rank)
    for letter in word.letters:
        if letter == index:
            total = total + GroupRingElement.of_word(prefix)
        elif letter == -index:
            inv = FreeWord(word.rank, (-index,))
            total = total - GroupRingElement.of_word(prefix * inv)
        prefix = prefix * FreeWord(word.rank, (letter,))
    return total


def fox_matrix(presentation: GroupPresentation) -> list[list[GroupRingElement]]:
    n = presentation.n_generators
    return [[fox_derivative(rel, j + 1) for j in range(n)]
            for rel in presentation.relators]


def ring_to_laurent(element: GroupRingElement, exponents: tuple[int, ...]) -> LaurentPoly:
    """Abelianize a group-ring element: each word becomes t^(e . exponent vector)."""
    acc: dict[int, int] = {}
    for word, coeff in element.coeffs.items():
        e = sum(exponents[i] * v for i, v in enumerate(word.exponent_vector()))
        acc[e] = acc.get(e, 0) + coeff
    return LaurentPoly.from_dict(acc)


def abelian_fox_row(word: FreeWord, exponents: tuple[int, ...]) -> list[LaurentPoly]:
    """The abelianized Fox derivatives of a word by every generator, in one
    pass: equal to ring_to_laurent(fox_derivative(word, j + 1), exponents)
    for each j.  Generator i maps to t^exponents[i]; at a prefix of exponent
    e, a letter x_i adds t^e to column i and x_i^-1 adds -t^(e - exponents[i])."""
    columns: list[dict[int, int]] = [{} for _ in range(word.rank)]
    e = 0
    for letter in word.letters:
        i = abs(letter) - 1
        column = columns[i]
        if letter > 0:
            column[e] = column.get(e, 0) + 1
            e += exponents[i]
        else:
            e -= exponents[i]
            column[e] = column.get(e, 0) - 1
    return [LaurentPoly.from_dict(column) for column in columns]


def infinite_cyclic_exponents(presentation: GroupPresentation) -> tuple[int, ...]:
    """Exponents e_i with generator_i -> t^(e_i) inducing H1 ~ Z, if H1 is Z."""
    n = presentation.n_generators
    rows = presentation.relator_matrix_rows()
    r = len(rows)
    a = IntMatrix.from_rows([[rows[k][i] for k in range(r)] for i in range(n)]) \
        if r else IntMatrix.zeros(n, 0)
    d, u, _ = smith_normal_form(a)
    free_rows = []
    for i in range(n):
        di = d.entries[i][i] if i < min(n, r) else 0
        if di == 0:
            free_rows.append(i)
        elif di != 1:
            raise AbelianizationError("abelianization has torsion")
    if len(free_rows) != 1:
        raise AbelianizationError("abelianization is not infinite cyclic")
    return tuple(u.entries[free_rows[0]])


def h1(presentation: GroupPresentation) -> list[int]:
    """Invariant factors of H1 of the presented group: torsion orders followed
    by one 0 per free Z summand; the empty list means the trivial group."""
    n = presentation.n_generators
    rows = presentation.relator_matrix_rows()
    if not rows:
        return [0] * n
    diag = smith_diagonal(IntMatrix.from_rows(rows))
    rank = sum(1 for x in diag if x != 0)
    return [x for x in diag if x > 1] + [0] * (n - rank)


def alexander_from_presentation(presentation: GroupPresentation,
                                assignment: tuple[int, ...] | None = None) -> LaurentPoly:
    """Alexander polynomial from a presentation whose abelianization is Z:
    abelianize the Fox matrix, delete the meridian column, and take the gcd
    of the maximal minors."""
    n = presentation.n_generators
    if assignment is None:
        exps = infinite_cyclic_exponents(presentation)
    else:
        if (type(assignment) not in (tuple, list)
                or any(type(x) is not int for x in assignment)):
            raise MalformedInputError("assignment must be a tuple or a list of integers")
        exps = tuple(assignment)
        if len(exps) != n:
            raise MalformedInputError("assignment length must match generator count")
        for rel in presentation.relators:
            vec = rel.exponent_vector()
            if sum(e * v for e, v in zip(exps, vec)) != 0:
                raise MalformedInputError("assignment does not kill all relators")
        acc = 0
        for e in exps:
            acc = gcd(acc, e)
        if acc != 1:
            raise MalformedInputError("assignment must map onto the infinite cyclic group")
    if n == 1:
        if presentation.relators:
            raise AbelianizationError("single-generator group with relators is not Z")
        return LaurentPoly.one()
    meridian = None
    for j, e in enumerate(exps):
        if abs(e) == 1:
            meridian = j
            break
    if meridian is None:
        raise AbelianizationError("no generator maps onto t^(+-1)")
    grid = [[p for j, p in enumerate(abelian_fox_row(rel, exps)) if j != meridian]
            for rel in presentation.relators]
    r, k = len(grid), n - 1
    size = min(r, k)
    if size < k:
        # fewer relators than needed: the first elementary ideal vanishes
        return LaurentPoly.zero()
    gcd_acc = LaurentPoly.zero()
    one = LaurentPoly.one()
    for rows in combinations(range(r), size):
        for cols in combinations(range(k), size):
            minor = laurent_det([[grid[i][j] for j in cols] for i in rows])
            if not minor.is_zero:
                gcd_acc = laurent_gcd(gcd_acc, minor)
                if gcd_acc == one:
                    return one
    if gcd_acc.is_zero:
        return LaurentPoly.zero()
    return normalize_alexander(gcd_acc)


# --------------------------------------------------------------------------
# Finite groups and homomorphism counting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupTable:
    label: str
    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    identity: int = 0
    inverses: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise MalformedInputError("multiplication table must be n x n")
        if len(self.names) != n:
            raise MalformedInputError("need one name per element")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise MalformedInputError("no identity element")
        inverses = []
        for x in range(n):
            inv = next((y for y in range(n) if self.table[x][y] == identity
                        and self.table[y][x] == identity), None)
            if inv is None:
                raise MalformedInputError(f"element {x} has no inverse")
            inverses.append(inv)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise MalformedInputError("multiplication is not associative")
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", tuple(inverses))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]


def _perm_group(label: str, elements: list[tuple[int, ...]]) -> FiniteGroupTable:
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(len(q)))] for q in elements)
                  for p in elements)
    names = tuple("".join(str(x) for x in p) for p in elements)
    return FiniteGroupTable(label, n, table, names)


def _cyclic_group(k: int) -> FiniteGroupTable:
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return FiniteGroupTable(f"Z{k}", k, table, tuple(str(i) for i in range(k)))


def _dihedral_square() -> FiniteGroupTable:
    rot = (1, 2, 3, 0)
    ref = (1, 0, 3, 2)
    elems = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for q in (rot, ref):
            composed = tuple(p[q[i]] for i in range(4))
            if composed not in elems:
                elems.add(composed)
                frontier.append(composed)
    return _perm_group("D4", sorted(elems))


def _is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return inversions % 2 == 0


_GROUP_BUILDERS = {
    "S3": lambda: _perm_group("S3", list(permutations(range(3)))),
    "S4": lambda: _perm_group("S4", list(permutations(range(4)))),
    "A4": lambda: _perm_group("A4", [p for p in permutations(range(4)) if _is_even(p)]),
    "D4": _dihedral_square,
}
for _k in range(1, 13):
    _GROUP_BUILDERS[f"Z{_k}"] = (lambda k: lambda: _cyclic_group(k))(_k)


def group_catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_GROUP_BUILDERS))


@lru_cache(maxsize=None)
def finite_group(name: str) -> FiniteGroupTable:
    try:
        builder = _GROUP_BUILDERS[name]
    except KeyError:
        raise CatalogError(f"unknown finite group {name!r}") from None
    return builder()


def count_homs(presentation: GroupPresentation, group: FiniteGroupTable,
               budget: int | None = None) -> int:
    """Exact number of homomorphisms from the presented group into `group`.

    Enumeration is deterministic: the meridian generator (named "t") is fixed
    first when present, then the remaining generators in presentation order;
    a relator is checked as soon as all its generators are assigned.  The
    nominal budget check |G|^n <= budget happens before any enumeration and
    failure raises, never returning a partial count.
    """
    if budget is None:
        budget = default_hom_budget()
    elif type(budget) is not int:
        raise MalformedInputError(f"homomorphism budget must be an integer, not {budget!r}")
    n = presentation.n_generators
    order = group.order
    if order**n > budget:
        raise BudgetExceededError(
            f"|G|^n = {order}**{n} exceeds the homomorphism budget {budget}")
    if n == 0:
        return 1 if all(r.is_identity for r in presentation.relators) else 0

    gen_order = list(range(n))
    for j, name in enumerate(presentation.generators):
        if name == "t":
            gen_order = [j] + [i for i in range(n) if i != j]
            break
    position = {g: p for p, g in enumerate(gen_order)}

    relators = []
    for rel in presentation.relators:
        letters = tuple((position[abs(x) - 1], 1 if x > 0 else -1) for x in rel.letters)
        ready_at = max((pos for pos, _ in letters), default=-1)
        relators.append((ready_at, letters))
    buckets: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in range(n)]
    immediate_ok = True
    for ready_at, letters in relators:
        if ready_at < 0:
            immediate_ok = immediate_ok and not letters
        else:
            buckets[ready_at].append(letters)
    if not immediate_ok:
        return 0

    assignment = [0] * n
    table = group.table
    invs = group.inverses
    identity = group.identity

    def relator_holds(letters) -> bool:
        acc = identity
        for pos, sign in letters:
            x = assignment[pos]
            acc = table[acc][x if sign > 0 else invs[x]]
        return acc == identity

    def search(pos: int) -> int:
        total = 0
        for value in range(order):
            assignment[pos] = value
            if all(relator_holds(rel) for rel in buckets[pos]):
                if pos + 1 == n:
                    total += 1
                else:
                    total += search(pos + 1)
        return total

    return search(0)
