"""Presentation-level invariants: Fox calculus, Alexander polynomials from
presentations, homology via Smith normal form, and exact counting of
homomorphisms into small finite groups.

Fox calculus comes in two forms.  `fox_matrix` gives the derivatives in the
group ring Z[F], each a {word: +-1} dict read off the prefixes of its
relator in one pass.  The invariants read only the abelianized derivatives,
in Z[t, t^-1] or evaluated at an integer, counted without building a word
(`_fox_columns`, `_fox_rows`); the tests check that the first, abelianized,
gives the second.

The Fox route to the Alexander polynomial builds no intermediate
polynomial.  A letter x_i adds t^e to column i of its relator's row of the
abelianized Fox matrix, e the exponent of the prefix before it, and x_i^-1
adds -t^e', e' that of the prefix after it.  One `itertools.accumulate`
walks all the relators' letters (each relator has exponent 0, so the next
starts at 0), and each letter adds 2^(its bit) to its relator's integer,
whose digits, of as many bytes as keep every count from carrying, then
count the terms of each column, sign and exponent (`_fox_rows`).  The
meridian column is deleted, the others are reversed, every row is shifted
by the walk's lowest exponent, and each entry is evaluated at t = 2^b.
b comes from Hadamard's inequality: on |z| = 1 an entry has
|p(z)| <= |p|_1, so every coefficient of a minor, being at most the
largest |minor(z)|, is at most the product over its rows of
(sum_j |p_j|_1^2)^(1/2); the product over all rows of
max(1, sum_j |p_j|_1^2) bounds its square for every minor, and b is one
more than half its bit length, rounded up.  Each minor is then one
integer Bareiss determinant, whose signed base-2^b digits are its
coefficients, up to a unit +-t^m, which the gcd ignores.  Reversing the
columns puts the t terms of an HNN presentation, in column i of relator i,
on the antidiagonal, so the first half of the elimination runs on minors
free of them.

`count_homs` has three routes, tried in order: targets that are abelian
are counted off H1, targets that split as (Z/a)^m ⋊ Z/k (S3, D4, A4) by
the Fox matrix evaluated in the action of Z/k, and any other target (S4)
by a search of at most `HOM_NODE_BUDGET` nodes.

A mapping torus F ⋊_f Z, the group of every fiber row of a script run, is
counted by `_mapping_torus_invariants` for every target.  While Δ(1) is
prime to the k of a split target, it reads H1 and the abelian and split
counts off the action A of f on H1(F) and χ(t) = det(tI - A), from the
Smith forms of Aᵀ - I and of I ⊗ M^s - Aᵀ ⊗ I per s ≠ 0, and walks no
relator.  The determinants decide most of them.  |χ(1)| = 1 makes A - I
unimodular, so H1 = Z.  A block μI - Aᵀ of a target with M^s = (μ) (S3,
D4) has determinant D = χ(μ), and if D ≠ 0 and no prime p | a has p² | D,
its kernel over Z/a has order gcd(D, a), since d_i | d_(i+1) leaves each
such p in at most one Smith entry (`_kernel_diagonal`).  The rule
declines, and the Smith form runs, when |χ(1)| ≠ 1 for H1, when D = 0 or
p² | D, and for every block of a target with M of size 2 or more (A4).
Any other target (a k sharing a factor with Δ(1), or one that does not
split, as S4) is counted by `count_homs` on the HNN presentation of f,
built once, whose H1 Smith form then also gives H1.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, combinations, islice, permutations, product, repeat
from math import gcd, prod
from operator import add, lshift, mul, neg, sub
from struct import unpack

from .errors import (AbelianizationError, BudgetExceededError, CatalogError,
                     MalformedInputError, _check_int, _check_sequence, _check_type,
                     _unchecked, field, frozen)
from .laurent import LaurentPoly, laurent_gcd, normalize_alexander
from .matrices import IntMatrix, _from_digits, _matrix, _product, _smith
from .presentation import GroupPresentation, hnn_presentation
from .words import FreeGroupMap, FreeWord, _word, handlebody_names

# The most nodes a hom search may visit; only targets that do not split search.
HOM_NODE_BUDGET = 10**8


def fox_matrix(presentation: GroupPresentation) -> list[list[dict[FreeWord, int]]]:
    """The Fox derivatives (Fox 1953) of every relator r by every generator
    x_j, entry (r, j) an element of Z[F] as {word: nonzero coefficient}.
    The rules d(uv) = du + u dv, dx_j = 1 and dx_j^-1 = -x_j^-1 make one
    pass over r's letters: x_j at position p adds +1 at the prefix
    letters[:p], and x_j^-1 adds -1 at letters[:p+1].  Both prefixes are
    reduced, because r is, and no prefix is reached twice in one column
    (that would take x_j^-1 x_j in r), so every coefficient is +-1."""
    _check_type(presentation, GroupPresentation, "presentation")
    rows = []
    for relator in presentation.relators:
        rank, letters = relator.rank, relator.letters
        row: list[dict[FreeWord, int]] = [{} for _ in range(rank)]
        for p, letter in enumerate(letters):
            if letter > 0:
                row[letter - 1][_word(rank, letters[:p])] = 1
            else:
                row[-letter - 1][_word(rank, letters[:p + 1])] = -1
        rows.append(row)
    return rows


def _fox_columns(letters: tuple[int, ...], exponents: tuple[int, ...]) -> list[dict[int, int]]:
    """The abelianized Fox derivatives of the word `letters` by every
    generator, as {exponent: coefficient} dicts, in one pass: at a prefix
    of exponent e, a letter x_i adds t^e to column i and x_i^-1 adds
    -t^(e - exponents[i]).  Cancelled terms stay as zero coefficients."""
    columns: list[dict[int, int]] = [{} for _ in exponents]
    e = 0
    for letter in letters:
        i = abs(letter) - 1
        column = columns[i]
        if letter > 0:
            column[e] = column.get(e, 0) + 1
            e += exponents[i]
        else:
            e -= exponents[i]
            column[e] = column.get(e, 0) - 1
    return columns


def _fox_rows(words: list[tuple[int, ...]], exps: tuple[int, ...], meridian: int
              ) -> tuple[list[tuple[int, ...]], int]:
    """The rows at t = 2^b of the abelianized Fox matrix of the relators
    `words` under generator i -> t^exps[i], and b, as the module docstring
    says: the meridian column deleted, the others reversed."""
    n = len(exps)
    k = n - 1
    longest, w = max(map(len, words)), 1  # bytes a count, so that none carries
    while longest >= 256 ** w:
        w *= 2
    unit = 16 * w  # the bits of one exponent: a count for x_i, then one for x_i^-1
    step = list(map(mul, (0, *exps, *map(neg, reversed(exps))), repeat(unit)))
    walk = list(accumulate(map(step.__getitem__, chain.from_iterable(words)), initial=0))
    low = min(walk)
    span = (max(walk) - low) // unit + 1
    stride = span * unit  # the bits of one column
    # letter -> the bit of its count less its prefix: the meridian's column
    # first, then the others from the last down; x_i^-1 counts at the next prefix
    columns = [*range(k * stride - low, (k - meridian) * stride - low, -stride), -low,
               *range((k - meridian) * stride - low, -low, -stride)]
    where = [0, *columns, *map(add, reversed(columns), map(add, step[n + 1:], repeat(8 * w)))]
    bits = map(lshift, repeat(1),
               map(add, map(where.__getitem__, chain.from_iterable(words)), walk))
    raw = b"".join([(sum(islice(bits, len(word))) >> stride).to_bytes(2 * k * span * w, "little")
                    for word in words])
    counts = raw if w == 1 else unpack(f"<{len(raw) // w}{'BHIQ'[w.bit_length() - 1]}", raw)
    coefs = list(map(sub, counts[::2], counts[1::2]))  # by relator, column, exponent
    # every Fox term sits at an exponent the walk reaches: only those digits count
    shifts = [(e - low) // unit for e in set(walk) if e != low]
    norms = list(map(abs, coefs[::span]))
    entries = coefs[::span]
    for j in shifts:
        norms = list(map(add, norms, map(abs, coefs[j::span])))
    bound = prod(map(max, repeat(1), map(sum, zip(*[map(mul, norms, norms)] * k))))
    b = (bound.bit_length() + 1) // 2 + 1
    for j in shifts:
        entries = list(map(add, entries, map(lshift, coefs[j::span], repeat(b * j))))
    return list(zip(*[iter(entries)] * k)), b


def infinite_cyclic_exponents(presentation: GroupPresentation) -> tuple[int, ...]:
    """Exponents e_i with generator_i -> t^(e_i) inducing H1 ~ Z, if H1 is Z:
    the one row of U in the presentation's H1 Smith form (`_smith_form`)."""
    _check_type(presentation, GroupPresentation, "presentation")
    factors, rows = _smith_form(presentation)
    if any(factors):  # the nonzero invariant factors are the torsion orders
        raise AbelianizationError("abelianization has torsion")
    if len(rows) != 1:
        raise AbelianizationError("abelianization is not infinite cyclic")
    return rows[0]


def h1(presentation: GroupPresentation) -> list[int]:
    """Invariant factors of H1 of the presented group: torsion orders followed
    by one 0 per free Z summand; the empty list means the trivial group."""
    _check_type(presentation, GroupPresentation, "presentation")
    return list(_smith_form(presentation)[0])


def _smith_form(presentation: GroupPresentation
                ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The invariant factors d_i of H1 (torsion orders, then one 0 per free Z
    summand) and, for each, its row U_i of U, from the Smith form U A V = D
    of the generators x relators exponent matrix A; the rows of diagonal
    entry 1, which come first, are the only ones left out.  Row i of U A is
    d_i times row i of V^-1, so Σ y_i U_i kills every relator mod k exactly
    when each y_i d_i is 0 mod k: the free rows span the homomorphisms
    Z^n -> Z, and with the torsion rows they give every hom H1 -> Z/k.

    Computed once per presentation and kept in its memo: H1, the hom counts
    and the Alexander polynomial's exponents all read it."""
    memo = presentation._memo
    if "smith" not in memo:
        n, relators = presentation.n_generators, presentation.relators
        a = [[0] * len(relators) for _ in range(n)]
        for k, rel in enumerate(relators):
            for letter in rel.letters:
                a[abs(letter) - 1][k] += 1 if letter > 0 else -1
        d, u, _ = _smith(a, len(relators), False)
        factors = _invariant_factors([d[i][i] for i in range(min(n, len(relators)))], n)
        memo["smith"] = factors, tuple(map(tuple, u[n - len(factors):]))
    return memo["smith"]


def _invariant_factors(diagonal: list[int], generators: int) -> tuple[int, ...]:
    """The invariant factors of Z^generators modulo relations with the Smith
    diagonal `diagonal`: the torsion orders, then one 0 per free Z summand."""
    free = generators - sum(1 for x in diagonal if x)
    return tuple(x for x in diagonal if x > 1) + (0,) * free


_ZERO, _ONE = _unchecked(LaurentPoly, ()), _unchecked(LaurentPoly, ((0, 1),))


def alexander_from_presentation(presentation: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial from a presentation whose abelianization is Z:
    abelianize the Fox matrix at the exponents of `infinite_cyclic_exponents`,
    delete the meridian column, and take the gcd of the maximal minors."""
    _check_type(presentation, GroupPresentation, "presentation")
    n = presentation.n_generators
    exps = infinite_cyclic_exponents(presentation)
    if n == 1:  # H1 = Z leaves each relator exponent sum 0: the empty word
        return _ONE
    sizes = list(map(abs, exps))
    if 1 not in sizes:
        raise AbelianizationError("no generator maps onto t^(+-1)")
    r, k = len(presentation.relators), n - 1
    if r < k:
        # fewer relators than needed: the first elementary ideal vanishes
        return _ZERO
    rows, b = _fox_rows([rel.letters for rel in presentation.relators], exps, sizes.index(1))
    gcd_acc = _ZERO
    for chosen in combinations(range(r), k):
        minor = _from_digits(_matrix(k, k, [rows[i] for i in chosen]).det(), b, 0)
        if not minor.is_zero:
            gcd_acc = laurent_gcd(gcd_acc, minor)
            if gcd_acc == _ONE:
                return _ONE
    if gcd_acc.is_zero:
        return _ZERO
    return normalize_alexander(gcd_acc)


# --------------------------------------------------------------------------
# Finite groups and homomorphism counting
# --------------------------------------------------------------------------

@frozen
class FiniteGroupTable:
    """A finite group by its multiplication table on the elements 0..order-1.

    The constructor derives the identity and the inverses, which are not
    parameters, and checks associativity.  What `count_homs` reads besides
    is computed on first use: whether the group is abelian, the order of
    each element, and for each element h the orbits of its centralizer
    acting on the group by conjugation, as (representative, orbit size)
    pairs.  The orbits of the
    identity's centralizer are the conjugacy classes.  `split` is (a, k, M)
    when the group is a semidirect product (Z/a)^m ⋊ Z/k, read off the table
    alone, else None."""
    label: str
    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    identity: int = field(init=False)
    inverses: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        _check_type(self.label, str, "group label")
        _check_int(self.order, "group order")
        n = self.order
        _check_sequence(self.table, "multiplication table")
        _check_sequence(self.names, "element names")
        if len(self.table) != n or any(type(row) not in (tuple, list) or len(row) != n
                                       for row in self.table):
            raise MalformedInputError("multiplication table must be n x n")
        if any(type(x) is not int or not 0 <= x < n for row in self.table for x in row):
            raise MalformedInputError("multiplication table entries must be elements 0..n-1")
        if len(self.names) != n or any(type(name) is not str for name in self.names):
            raise MalformedInputError("need one name (a string) per element")
        table = tuple(tuple(row) for row in self.table)
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise MalformedInputError("no identity element")
        inverses = []
        for x in range(n):
            inv = next((y for y in range(n) if table[x][y] == identity
                        and table[y][x] == identity), None)
            if inv is None:
                raise MalformedInputError(f"element {x} has no inverse")
            inverses.append(inv)
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise MalformedInputError("multiplication is not associative")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", tuple(inverses))

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for x in range(self.order):
            k, power = 1, x
            while power != self.identity:
                k, power = k + 1, self.table[power][x]
            orders.append(k)
        return tuple(orders)

    @cached_property
    def orbits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        t, n = self.table, self.order
        out = []
        for h in range(n):
            centralizer = [g for g in range(n) if t[g][h] == t[h][g]]
            reps, seen = [], set()
            for x in range(n):
                if x not in seen:
                    conjugates = {t[t[g][x]][self.inverses[g]] for g in centralizer}
                    seen |= conjugates
                    reps.append((x, len(conjugates)))
            out.append(tuple(reps))
        return tuple(out)

    @cached_property
    def split(self) -> tuple[int, int, tuple[tuple[int, ...], ...]] | None:
        """(a, k, M) if the group is A ⋊ <c>, A ~ (Z/a)^m abelian and normal, c
        of order k, with c b_j c^-1 = Σ_i M[i][j] b_i on a basis b of A; else
        None.  M holds residues mod a in (-a/2, a/2], so that S3 and D4 both
        give M = -1.  A runs over the abelian subgroups G'<x>, normal because
        they hold the commutator subgroup G'; its basis is chosen greedily,
        and the split with the least m, then the least k, is kept."""
        t, n, e, inv, orders = self.table, self.order, self.identity, self.inverses, \
            self.element_orders

        def powers(x):
            out = [e]
            while t[out[-1]][x] != e:
                out.append(t[out[-1]][x])
            return out

        derived, grown = set(), {t[t[x][y]][t[inv[x]][inv[y]]] for x in range(n) for y in range(n)}
        while grown != derived:  # close the commutators under products
            derived, grown = grown, {t[x][y] for x in grown for y in grown}
        best = None
        for x in range(n):
            group = {t[g][p] for g in derived for p in powers(x)}
            if n % len(group) or any(t[y][z] != t[z][y] for y in group for z in group):
                continue
            a, k = max(orders[y] for y in group), n // len(group)
            coords, basis = {e: ()}, []  # element -> coordinates on the basis so far
            while len(coords) < len(group):
                b = next((powers(y) for y in sorted(group) if orders[y] == a
                          and not coords.keys() & set(powers(y)[1:])), None)
                if b is None:  # A is not (Z/a)^m
                    break
                basis.append(b[1])
                coords = {t[s][p]: v + (j,) for s, v in coords.items() for j, p in enumerate(b)}
            c = next((c for c in range(n) if orders[c] == k and not group & set(powers(c)[1:])),
                     None)
            if len(coords) == len(group) and c is not None and (
                    best is None or (len(basis), k) < (len(best[2]), best[1])):
                columns = [coords[t[t[c][y]][inv[c]]] for y in basis]
                best = (a, k, tuple(tuple(v[i] - a * (2 * v[i] > a) for v in columns)
                                    for i in range(len(basis))))
        return best


# The catalog groups are built without the constructor's checks: a table of
# composed permutations or of addition mod k is a group by construction, and
# its identity and inverses are read off the construction.

def _perm_group(label: str, elements: list[tuple[int, ...]]) -> FiniteGroupTable:
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(len(q)))] for q in elements)
                  for p in elements)
    names = tuple("".join(str(x) for x in p) for p in elements)
    inverses = tuple(index[tuple(sorted(range(len(p)), key=p.__getitem__))] for p in elements)
    return _unchecked(FiniteGroupTable, label, n, table, names,
                      index[tuple(range(len(elements[0])))], inverses)


def _cyclic_group(k: int) -> FiniteGroupTable:
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return _unchecked(FiniteGroupTable, f"Z{k}", k, table, tuple(str(i) for i in range(k)), 0,
                      tuple(-i % k for i in range(k)))


def _is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return inversions % 2 == 0


_GROUP_BUILDERS = {
    "S3": lambda: _perm_group("S3", list(permutations(range(3)))),
    "S4": lambda: _perm_group("S4", list(permutations(range(4)))),
    "A4": lambda: _perm_group("A4", [p for p in permutations(range(4)) if _is_even(p)]),
    # the symmetries x -> +-x + k (mod 4) of a square
    "D4": lambda: _perm_group("D4", [tuple((s * x + k) % 4 for x in range(4))
                                     for s in (1, -1) for k in range(4)]),
}
for _k in range(1, 13):
    _GROUP_BUILDERS[f"Z{_k}"] = (lambda k: lambda: _cyclic_group(k))(_k)


def group_catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_GROUP_BUILDERS))


def finite_group(name: str) -> FiniteGroupTable:
    _check_type(name, str, "finite group name")
    return _finite_group(name)


@lru_cache(maxsize=None)
def _finite_group(name: str) -> FiniteGroupTable:
    try:
        builder = _GROUP_BUILDERS[name]
    except KeyError:
        raise CatalogError(f"unknown finite group {name!r}") from None
    return builder()


def count_homs(presentation: GroupPresentation, group: FiniteGroupTable) -> int:
    """Exact number of homomorphisms from the presented group into `group`.

    Abelian targets A are counted through H1: a hom factors through the
    abelianization, so the count is the product over the invariant factors
    d_i of H1 of #{a in A : a^d_i = e}, where a free summand (d_i = 0)
    counts |A|.  This route searches nothing.

    A target that splits as A ⋊ <c> (`FiniteGroupTable.split`: S3, D4, A4)
    is counted by Fox calculus, searching nothing either (Fox, Free
    differential calculus I, Ann. of Math. 1953; Hartley, Metabelian
    representations of knot groups, Pacific J. Math. 1979).  A hom is
    x -> d(x) c^ψ(x) for a hom ψ to Z/k and a crossed homomorphism d to A,
    free on the generators, and it kills relator r exactly when
    Σ_j (∂r/∂x_j)^ψ d(x_j) = 0, with t^e acting on A as M^e.  The count is
    the sum over ψ of the kernel sizes of these Fox matrices J_ψ; for ψ = 0,
    J is the exponent matrix times I, and its kernel is read off H1.

    Other targets (S4) go through a search with deductions (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  A plan fixed by
    the presentation alone assigns the generators one at a time.  When an
    unfinished relator u x^s v has x as its only unassigned generator, and x
    occurs in it once, x is forced: x^s = (v u)^-1.  Otherwise the step
    enumerates the unassigned generator that occurs in the most unfinished
    relators.  Conjugating a hom by g matches the homs with x -> y one to
    one with those with x -> g y g^-1, so the first enumerated generator
    (the meridian "t" when present) runs over one representative per
    conjugacy class, weighted by the class size; the second runs over the
    orbits of the centralizer of the first one's value, weighted by the
    orbit size.  Each step checks only the relators it completes.

    A node is one candidate value tried for a generator, enumerated or
    forced.  The constant HOM_NODE_BUDGET (10**8) bounds the nodes the
    search visits, and nothing else; going over it raises
    BudgetExceededError, never returning a partial count.
    """
    _check_type(presentation, GroupPresentation, "presentation")
    _check_type(group, FiniteGroupTable, "group")
    if group.is_abelian:
        return _abelian_count(_smith_form(presentation)[0], group)
    if group.split is not None:
        a, k, m = group.split
        return _crossed_count(_smith_form(presentation)[0],
                              _twisted_diagonals(presentation, k, m), a, len(m))
    return _completed_search(presentation, group, HOM_NODE_BUDGET)


def _abelian_count(factors: tuple[int, ...], group: FiniteGroupTable) -> int:
    """The homs into the abelian `group` from a group whose H1 has the
    invariant factors `factors` (see `count_homs`)."""
    return prod(sum(1 for k in group.element_orders if d % k == 0) for d in factors)


def _crossed_count(factors: tuple[int, ...], diagonals: tuple, a: int, dim: int) -> int:
    """The homs into (Z/a)^dim ⋊ Z/k (see `count_homs`): the ψ = 0 term from
    the H1 factors, and one kernel over Z/a per Smith diagonal of a ψ ≠ 0."""
    count = prod(gcd(d, a) ** dim for d in factors)  # ψ = 0
    return count + sum(prod(gcd(x, a) for x in diagonal) for diagonal in diagonals)


def _powers(m: tuple[tuple[int, ...], ...], k: int) -> list[list[list[int]]]:
    """M^0, ..., M^(k-1), as lists of rows."""
    dim, columns = len(m), tuple(zip(*m))
    powers = [[[int(i == j) for j in range(dim)] for i in range(dim)]]
    for _ in range(k - 1):
        powers.append(_product(powers[-1], columns))
    return powers


def _twisted_diagonals(presentation: GroupPresentation, k: int,
                       m: tuple[tuple[int, ...], ...]) -> tuple:
    """For each hom ψ ≠ 0 to Z/k, a Smith diagonal over Z, padded with zeros
    to n dim entries, of the Fox matrix J_ψ: block (r, j) is the Fox
    derivative of relator r by x_j, from `_fox_columns` with the exponents
    ψ, with t^e evaluated at M^(e mod k).  Over Z/a, |ker J_ψ| is the product
    of gcd(δ, a) over the diagonal.  The homs are ψ = Σ y_i U_i mod k with
    y_i d_i = 0 mod k (see `_smith_form`).  Kept in the presentation's memo
    under (k, M), which S3 and D4, whose c both act by -1, share."""
    memo = presentation._memo
    if (k, m) in memo:
        return memo[k, m]
    n, dim = presentation.n_generators, len(m)
    factors, rows = _smith_form(presentation)
    powers = _powers(m, k)
    steps = [(row, k // gcd(d, k)) for d, row in zip(factors, rows) if gcd(d, k) > 1]
    out = []
    for ys in product(*(range(0, k, step) for _, step in steps)):
        if not any(ys):
            continue
        psi = [sum(y * row[j] for y, (row, _) in zip(ys, steps)) % k for j in range(n)]
        block = []
        for rel in presentation.relators:
            columns = _fox_columns(rel.letters, psi)
            block += ([sum(c * powers[e % k][s][t] for e, c in column.items())
                       for column in columns for t in range(dim)] for s in range(dim))
        d = _smith(block, n * dim, False)[0]
        out.append(tuple(d[i][i] if i < len(d) else 0 for i in range(n * dim)))
    memo[k, m] = out = tuple(out)
    return out


def _kernel_diagonal(det: int, a: int, smith) -> tuple[int, ...]:
    """A diagonal whose product of gcd(x, a) is the order of the kernel over
    Z/a of a square integer matrix B with det B = `det`: (det,) when that
    settles it, else `smith()`, B's Smith diagonal.  If det ≠ 0 and no prime
    p | a has p² | det, then at most one Smith entry d_i of B is divisible
    by each such p, as d_i | d_(i+1) and ∏ d_i = ±det, so ∏ gcd(d_i, a) =
    gcd(det, a).  g = gcd(det, a²) keeps each such p² that divides det, and
    det = 0 gives g = a², so testing g for the squares p² with p <= a
    decides it without factoring det."""
    g = gcd(det, a * a)
    return (det,) if all(g % (p * p) for p in range(2, a + 1)) else smith()


def _mapping_torus_invariants(f: FreeGroupMap, action: IntMatrix, chi: LaurentPoly,
                              groups: tuple) -> tuple:
    """(H1 factors, hom counts into each of `groups`) of the mapping torus
    F ⋊_f Z of the free-group map `f`, with abelianization `action` = A and
    χ(t) = det(tI - A) = `chi`; χ(1) = ±Δ(1).  A target that is neither
    abelian nor split (`FiniteGroupTable.split`), or splits with a k that
    shares a factor with Δ(1), is counted by `count_homs` on the HNN
    presentation of f, built once and only then; its memoized H1 Smith form
    then gives H1 too.  Generator names only label it, so the handlebody
    names serve every f.  Every other count uses A and χ alone, with no
    presentation and no Fox pass.

    H1 is Z ⊕ coker(A - I): the Smith factors of Aᵀ - I, padded with one 0
    for t as `h1` pads them, give the abelian counts and the ψ = 0 term of a
    split count as `count_homs` reads them off a presentation.  When
    |χ(1)| = 1, A - I is unimodular and H1 = Z with no elimination.  With
    Δ(1) prime to k, a hom ψ to Z/k kills the fiber (its values there are
    killed by Aᵀ - I, which is invertible mod k), so ψ(t) = s alone picks ψ.
    As t x_i t^-1 = f(x_i), a hom x_i -> d_i, t -> d c^s into
    (Z/a)^m ⋊ Z/k needs M^s d_i = Σ_j A[j][i] d_j: (d_i) is in the kernel
    over Z/a of I_n ⊗ M^s - Aᵀ ⊗ I_m, and d is free, which pads each
    diagonal with m zeros.  For m = 1 (S3, D4) that block is μI - Aᵀ,
    μ = M^s, of determinant χ(μ), which settles the kernel unless some
    p | a has p² | χ(μ) (`_kernel_diagonal`); D4 always takes the shortcut
    here, as χ(-1) ≡ χ(1) is odd.  Any other block gets one Smith form per
    s ≠ 0, shared by every target with that (k, M): S3 and D4 share theirs."""
    delta = chi.evaluate(1)
    presented = [not group.is_abelian and (group.split is None or gcd(delta, group.split[1]) > 1)
                 for group in groups]
    presentation = hnn_presentation(f, handlebody_names(f.rank)) if any(presented) else None
    n = action.rows
    transposed = list(zip(*action.entries))
    if abs(delta) == 1:
        factors = (0,)
    elif presentation is not None:
        factors = _smith_form(presentation)[0]
    else:
        d = _smith([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(transposed)],
                   n, False)[0]
        factors = _invariant_factors([d[i][i] for i in range(n)], n + 1)  # + t
    diagonals, counts = {}, []

    def twisted(k, m, s):  # the Smith diagonal of I_n ⊗ M^s - Aᵀ ⊗ I_m
        if (k, m, s) not in diagonals:
            power, dim = _powers(m, k)[s], len(m)
            block = [[(power[p][q] if i == j else 0) - (x if p == q else 0)
                      for j, x in enumerate(row) for q in range(dim)]
                     for i, row in enumerate(transposed) for p in range(dim)]
            d = _smith(block, n * dim, False)[0]
            diagonals[k, m, s] = tuple(d[i][i] for i in range(n * dim))
        return diagonals[k, m, s]

    for group, by_presentation in zip(groups, presented):
        if by_presentation:
            counts.append(count_homs(presentation, group))
        elif group.is_abelian:
            counts.append(_abelian_count(factors, group))
        else:
            a, k, m = group.split
            terms = [(_kernel_diagonal(chi.evaluate(m[0][0] ** s), a, partial(twisted, k, m, s))
                      if len(m) == 1 else twisted(k, m, s)) + (0,) * len(m) for s in range(1, k)]
            counts.append(_crossed_count(factors, terms, a, len(m)))
    return factors, tuple(counts)


def _search_plan(presentation: GroupPresentation) -> tuple[tuple, ...]:
    """The steps of the hom search, one per generator, in order.

    A step is (slot, word, checks).  Generator i has slots 2i (its value)
    and 2i + 1 (its inverse's), and a word is a tuple of slots.  `word` is
    None for an enumerated step; for a forced step the value is the product
    of `word`.  `checks` are the relators, as words, that the step completes
    and that must multiply out to the identity."""
    n, generators = presentation.n_generators, presentation.generators
    first = generators.index("t") if "t" in generators else None
    relators = [rel.letters for rel in presentation.relators if rel.letters]
    slots = [tuple(2 * abs(x) - 2 + (x < 0) for x in rel) for rel in relators]
    occurrences = [Counter(abs(x) - 1 for x in rel) for rel in relators]
    pending = [len(rel) for rel in relators]  # letters whose generator is unassigned
    containing: list[list[int]] = [[] for _ in range(n)]
    for k, counts in enumerate(occurrences):
        for g in counts:
            containing[g].append(k)
    degree = [len(ks) for ks in containing]  # unfinished relators holding each generator
    unfinished = list(range(len(relators)))
    unassigned = set(range(n))
    steps = []
    while unassigned:
        # A relator with one pending letter has one unassigned generator, occurring once.
        forced = next((k for k in unfinished if pending[k] == 1), None)
        if forced is not None:
            p = next(p for p, letter in enumerate(relators[forced])
                     if abs(letter) - 1 in unassigned)
            x = abs(relators[forced][p]) - 1
            rest = slots[forced][p + 1:] + slots[forced][:p]  # x^s rest = e
            word = rest if relators[forced][p] < 0 else tuple(s ^ 1 for s in reversed(rest))
        elif first in unassigned and all(step[1] is not None for step in steps):
            x, word = first, None
        else:
            x, word = min(unassigned, key=lambda g: (-degree[g], g)), None
        unassigned.discard(x)
        for k in containing[x]:
            pending[k] -= occurrences[k][x]
            if not pending[k]:
                for g in occurrences[k]:
                    degree[g] -= 1
        checks = tuple(slots[k] for k in unfinished if not pending[k] and k != forced)
        unfinished = [k for k in unfinished if pending[k]]
        steps.append((2 * x, word, checks))
    return tuple(steps)


def _completed_search(presentation: GroupPresentation, group: FiniteGroupTable,
                      budget: int) -> int:
    """The homs into `group` by the search of `count_homs`, visiting at most
    `budget` nodes (`count_homs` passes HOM_NODE_BUDGET)."""
    steps = _search_plan(presentation)
    table, inverses, e = group.table, group.inverses, group.identity
    everything = tuple((value, 1) for value in range(group.order))
    enumerated = iter(k for k, (_, word, _) in enumerate(steps) if word is None)
    first, second = next(enumerated, None), next(enumerated, None)
    orbits = group.orbits
    candidates = [None if word is not None else orbits[e] if k == first else everything
                  for k, (_, word, _) in enumerate(steps)]
    values = [e] * (2 * presentation.n_generators)
    visited = 0
    last = len(steps)

    def descend(k: int) -> int:
        nonlocal visited
        if k == last:
            return 1
        slot, word, checks = steps[k]
        options = candidates[k]
        if k == second:
            options = orbits[values[steps[first][0]]]
        elif options is None:
            acc = e
            for s in word:
                acc = table[acc][values[s]]
            options = ((acc, 1),)
        total = 0
        for value, weight in options:
            visited += 1
            if visited > budget:
                raise BudgetExceededError(
                    f"homomorphism search visited {visited} nodes, over the budget {budget}")
            values[slot] = value
            values[slot + 1] = inverses[value]
            for check in checks:
                acc = e
                for s in check:
                    acc = table[acc][values[s]]
                if acc != e:
                    break
            else:
                total += weight * descend(k + 1)
        return total

    return descend(0)
