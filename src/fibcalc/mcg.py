"""Mapping-class data for surfaces and handlebodies.

Homology of the genus-g surface uses the interleaved basis
[a1], [b1], ..., [ag], [bg] with intersection pairing <ai, bi> = +1.
A right-handed Dehn twist along a curve of class c acts on homology by the
transvection x -> x + <x, c> c.  pi1-level twist actions are carried as
curated payloads (free-group automorphisms with inverse witnesses), never
derived from curve diagrams.

The handlebody convention: the inclusion of the boundary surface kills the
b-classes and sends [ai] to the i-th handlebody generator, so the standard
Lagrangian is span{[b1], ..., [bg]}.

Curves and monodromies are checked where they enter: the `CurveSpec`,
`SurfaceMonodromy` and `HandlebodyMonodromy` constructors (used by the JSON
loader, the catalog builders and callers) check shapes and types, that the
action is symplectic, that a pi1 payload abelianizes to the homological
action, and Lagrangian compatibility.  Only the `HandlebodyMonodromy`
constructor runs `cg_compatibility`, which in the interleaved basis is a
read of the a-rows of the action: the b-columns must be zero there, and the
a-columns must hold the quotient action there.  `SurfaceMonodromy.identity`,
`twist_monodromy`, `compose_monodromy`, `mirror`, `boundary_connected_sum`
and `CurveSpec.extend` derive their results from checked values and build
them without a second check, because each fact holds by construction:
transvections, products, inverses and block sums of symplectic matrices are
symplectic; abelianization is a homomorphism, so it carries a power,
composite, inverse or block extension of payloads to the same operation on
their actions (a payload's m-th power abelianizes to the m-th transvection,
since c c^T J squares to zero); and extending a curve keeps its
a-coordinates zero and its payload's abelianization the transvection of the
extended class.  The handlebody monodromies of `ribbon_disk.half_spin` and
`ribbon_disk.disk_twist`, and the doubled boundary, are derived the same way
(the reasons are given there).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import (CatalogError, MalformedInputError, MissingPayloadError,
                     RankMismatchError, _check_int, _check_optional_str, _check_sequence,
                     _check_size, _check_type, _unchecked, field, frozen)
from .matrices import IntMatrix, _matrix, block_diag
from .words import FreeGroupMap, _check_genus, abelianize, compose


def symplectic_form(genus: int) -> IntMatrix:
    """Block-diagonal J with one [[0, 1], [-1, 0]] block per handle."""
    _check_genus(genus)
    n = 2 * genus
    _check_size(n, "symplectic form size")
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return IntMatrix.from_rows(rows) if n else IntMatrix.identity(0)


def is_symplectic(a: IntMatrix) -> bool:
    """Whether A^T J A = J.  Entry (i, k) of A^T J A is the pairing of
    columns i and k, the sum over handles h of a_hi b_hk - b_hi a_hk for the
    rows a_h, b_h of the handle; it is antisymmetric, so the entries above
    the diagonal decide."""
    _check_type(a, IntMatrix, "matrix")
    if a.rows != a.cols or a.rows % 2 != 0:
        return False
    n, m = a.rows, a.entries
    pairs = [(m[h], m[h + 1]) for h in range(0, n, 2)]
    return all(sum(x[i] * y[k] - y[i] * x[k] for x, y in pairs) == (k == i + 1 and i % 2 == 0)
               for i in range(n) for k in range(i + 1, n))


def _class_vector(value) -> tuple[int, ...]:
    """`value`, checked to be a tuple or a list of exact integers, as a tuple."""
    _check_sequence(value, "homology class")
    vec = tuple(value)
    if any(type(x) is not int for x in vec):
        raise MalformedInputError("homology class entries must be integers")
    return vec


def intersection(x: Sequence[int], y: Sequence[int]) -> int:
    x, y = _class_vector(x), _class_vector(y)
    if len(x) != len(y) or len(x) % 2 != 0:
        raise RankMismatchError("intersection needs two vectors of equal even length")
    total = 0
    for i in range(len(x) // 2):
        total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
    return total


@frozen
class CurveSpec:
    genus: int
    homology_class: tuple[int, ...]
    pi1_payload: FreeGroupMap | None = None
    bounds_disk_in_handlebody: bool = False
    unknotted_in_ambient: bool = False
    fiber_framing_zero: bool = False
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_int(self.genus, "genus")
        _check_optional_str(self.name, "curve name")
        vec = _class_vector(self.homology_class)
        if len(vec) != 2 * self.genus:
            raise MalformedInputError("homology class must have length 2*genus")
        object.__setattr__(self, "homology_class", vec)
        flags = (self.bounds_disk_in_handlebody, self.unknotted_in_ambient,
                 self.fiber_framing_zero)
        if any(type(flag) is not bool for flag in flags):
            raise MalformedInputError("curve flags must be booleans")
        if self.bounds_disk_in_handlebody and any(vec[2 * i] for i in range(self.genus)):
            raise MalformedInputError(
                "a curve bounding a disk in the handlebody must lie in span{[b_i]}")
        if self.pi1_payload is not None:
            _check_type(self.pi1_payload, FreeGroupMap, "pi1 payload")
            if self.pi1_payload.rank != 2 * self.genus:
                raise RankMismatchError("pi1 payload must have rank 2*genus")
            if abelianize(self.pi1_payload) != transvection(self):
                raise MalformedInputError(
                    "pi1 payload must abelianize to the transvection of the class")

    def extend(self, new_genus: int, handle_offset: int = 0) -> "CurveSpec":
        """The same curve viewed on a larger surface (handles shifted up)."""
        _check_int(new_genus, "genus")
        _check_int(handle_offset, "handle offset")
        if new_genus == self.genus and handle_offset == 0:
            return self
        if handle_offset < 0 or handle_offset + self.genus > new_genus:
            raise RankMismatchError("curve does not fit in the target surface")
        _check_size(2 * new_genus, "homology class length")
        vec = [0] * (2 * new_genus)
        for k, x in enumerate(self.homology_class):
            vec[2 * handle_offset + k] = x
        payload = None
        if self.pi1_payload is not None:
            payload = self.pi1_payload.extend(2 * new_genus, 2 * handle_offset)
        name = self.name
        if name is not None and handle_offset:
            name = f"{name}+{handle_offset}"
        return _unchecked(CurveSpec, new_genus, tuple(vec), payload,
                          self.bounds_disk_in_handlebody, self.unknotted_in_ambient,
                          self.fiber_framing_zero, name)


def _catalog_curve(name: str, genus: int) -> "CurveSpec | None":
    """The catalog curve, or the copy `CurveSpec.extend` makes of one, that
    is named `name` at genus `genus`; None if `extend` writes no such name.
    `extend` appends "+k" for each nonzero handle offset k, so a right-
    associated sum nests the suffixes.  The copy does not depend on the
    genera in between, so each suffix extends by just its offset."""
    base, *suffixes = name.split("+")
    if base not in _CATALOG_BUILDERS:
        return None
    curve, digits = _curated_payload(base), len(str(genus))
    if not isinstance(curve, CurveSpec):
        return None
    for k in suffixes:  # the text `str` writes for a positive integer
        if not (k.isascii() and k.isdigit() and k[0] != "0" and len(k) <= digits):
            return None
        offset = int(k)
        if curve.genus + offset > genus:
            return None
        curve = curve.extend(curve.genus + offset, offset)
    return curve.extend(genus, 0) if curve.genus <= genus else None


def _twist_word(word, what: str) -> tuple[tuple[CurveSpec, int], ...]:
    """`word` as a tuple of (curve, multiplier) pairs, checked for shape."""
    _check_sequence(word, what)
    for entry in word:
        if not (type(entry) in (tuple, list) and len(entry) == 2
                and isinstance(entry[0], CurveSpec) and type(entry[1]) is int):
            raise MalformedInputError(f"{what} entry {entry!r} is not a (curve, int) pair")
    return tuple(tuple(entry) for entry in word)


def transvection(curve: "CurveSpec | Sequence[int]", multiplier: int = 1) -> IntMatrix:
    """Homological action of the m-th power of a right-handed Dehn twist:
    x -> x + m <x, c> c.  Computed as I - m (c c^T J); the closed form holds
    because c c^T J is square-zero."""
    _check_int(multiplier, "twist multiplier")
    if isinstance(curve, CurveSpec):
        vec = curve.homology_class
    else:
        vec = _class_vector(curve)
    n = len(vec)
    if n % 2 != 0:
        raise MalformedInputError("homology class must have even length")
    # J c: (J c)_2i = c_2i+1 and (J c)_2i+1 = -c_2i; (c c^T J)_ik = -c_i (J c)_k
    jc = [x for i in range(0, n, 2) for x in (vec[i + 1], -vec[i])]
    return _matrix(n, n, [[(1 if i == k else 0) + multiplier * vec[i] * jc[k] for k in range(n)]
                          for i in range(n)])


@frozen
class SurfaceMonodromy:
    genus: int
    action: IntMatrix
    pi1_action: FreeGroupMap | None = None
    provenance: tuple[tuple[CurveSpec, int], ...] = ()

    def __post_init__(self):
        _check_int(self.genus, "genus")
        _check_type(self.action, IntMatrix, "homological action")
        n = 2 * self.genus
        if (self.action.rows, self.action.cols) != (n, n):
            raise RankMismatchError("homological action must be 2g x 2g")
        if not is_symplectic(self.action):
            raise MalformedInputError("homological action must be symplectic")
        if self.pi1_action is not None:
            _check_type(self.pi1_action, FreeGroupMap, "pi1 action")
            if self.pi1_action.rank != n:
                raise RankMismatchError("pi1 action must have rank 2g")
            if abelianize(self.pi1_action) != self.action:
                raise MalformedInputError("pi1 action must abelianize to the homological action")
        object.__setattr__(self, "provenance", _twist_word(self.provenance, "provenance"))

    @classmethod
    def identity(cls, genus: int) -> "SurfaceMonodromy":
        _check_int(genus, "genus")
        pi1 = FreeGroupMap.identity(2 * genus)
        return _unchecked(cls, genus, IntMatrix.identity(2 * genus), pi1, ())

    @classmethod
    def from_twist_word(cls, genus: int,
                        word: Sequence[tuple[CurveSpec, int]]) -> "SurfaceMonodromy":
        word = _twist_word(word, "twist word")
        out = cls.identity(genus)
        for curve, m in word:
            out = compose_monodromy(out, twist_monodromy(curve, m))
        return out


def _merge_twist_words(*words):
    stack: list[tuple[CurveSpec, int]] = []
    for word in words:
        for curve, m in word:
            if m == 0:
                continue
            if stack and stack[-1][0] == curve:
                total = stack[-1][1] + m
                stack.pop()
                if total:
                    stack.append((curve, total))
            else:
                stack.append((curve, m))
    return tuple(stack)


def twist_monodromy(curve: CurveSpec, multiplier: int = 1) -> SurfaceMonodromy:
    _check_type(curve, CurveSpec, "twist curve")
    _check_int(multiplier, "twist multiplier")
    payload = None
    if curve.pi1_payload is not None:
        payload = curve.pi1_payload.power(multiplier)
    return _unchecked(SurfaceMonodromy, curve.genus, transvection(curve, multiplier), payload,
                      ((curve, multiplier),) if multiplier else ())


def compose_monodromy(m1: SurfaceMonodromy, m2: SurfaceMonodromy) -> SurfaceMonodromy:
    """m1 after m2: homological actions multiply, pi1 payloads compose when
    both are present."""
    _check_type(m1, SurfaceMonodromy, "monodromy")
    _check_type(m2, SurfaceMonodromy, "monodromy")
    if m1.genus != m2.genus:
        raise RankMismatchError("monodromies must share a genus")
    payload = None
    if m1.pi1_action is not None and m2.pi1_action is not None:
        payload = compose(m1.pi1_action, m2.pi1_action)
    return _unchecked(SurfaceMonodromy, m1.genus, m1.action.mul(m2.action), payload,
                      _merge_twist_words(m1.provenance, m2.provenance))


def mirror(m: SurfaceMonodromy) -> SurfaceMonodromy:
    """Invert the monodromy (the induced data of the reversed knot).  The
    action A is symplectic, A^T J A = J, so A^-1 = J^-1 A^T J = -J A^T J."""
    _check_type(m, SurfaceMonodromy, "monodromy")
    payload = None
    if m.pi1_action is not None:
        if not m.pi1_action.has_witness:
            raise MissingPayloadError("mirror needs an inverse witness on the pi1 payload")
        payload = m.pi1_action.inverse()
    prov = tuple((c, -k) for c, k in reversed(m.provenance))
    j = symplectic_form(m.genus)
    inverse = j.mul(m.action.transpose()).mul(j).neg()
    return _unchecked(SurfaceMonodromy, m.genus, inverse, payload, prov)


def boundary_connected_sum(m1: SurfaceMonodromy, m2: SurfaceMonodromy) -> SurfaceMonodromy:
    _check_type(m1, SurfaceMonodromy, "monodromy")
    _check_type(m2, SurfaceMonodromy, "monodromy")
    genus = m1.genus + m2.genus
    action = block_diag(m1.action, m2.action)
    payload = None
    if m1.pi1_action is not None and m2.pi1_action is not None:
        n = 2 * genus
        payload = compose(m1.pi1_action.extend(n, 0), m2.pi1_action.extend(n, 2 * m1.genus))
    prov = _merge_twist_words(
        tuple((c.extend(genus, 0), k) for c, k in m1.provenance),
        tuple((c.extend(genus, m1.genus), k) for c, k in m2.provenance))
    return _unchecked(SurfaceMonodromy, genus, action, payload, prov)


@frozen
class CompatibilityReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def cg_compatibility(action: IntMatrix, quotient_action: IntMatrix) -> CompatibilityReport:
    """Necessary homological condition for a surface monodromy to extend over
    a handlebody: the action preserves the standard Lagrangian span{[b_i]}
    and induces `quotient_action` on the quotient, with basis the classes of
    the [a_i].  In the basis [a1], [b1], ... both are read off the a-rows:
    column b_i has no a-entries, and the a-entries of column a_j are column j
    of `quotient_action`."""
    _check_type(action, IntMatrix, "action")
    _check_type(quotient_action, IntMatrix, "quotient action")
    if action.rows != action.cols or action.rows % 2 != 0:
        raise RankMismatchError("action must be a square 2g x 2g matrix")
    genus = action.rows // 2
    if not is_symplectic(action):
        raise MalformedInputError("action must be symplectic")
    if (quotient_action.rows, quotient_action.cols) != (genus, genus):
        raise RankMismatchError("quotient action must be g x g")
    a_rows, q = action.entries[::2], quotient_action.entries
    failures = [f"action moves lagrangian row {i + 1} out of the span"
                for i in range(genus) if any(row[2 * i + 1] for row in a_rows)]
    failures += [f"induced quotient map differs from the given one on basis vector {j + 1}"
                 for j in range(genus) if any(a_rows[i][2 * j] != q[i][j] for i in range(genus))]
    return CompatibilityReport(not failures, tuple(failures))


@frozen
class HandlebodyMonodromy:
    genus: int
    pi1_action: FreeGroupMap
    boundary: SurfaceMonodromy

    def __post_init__(self):
        _check_int(self.genus, "genus")
        _check_type(self.pi1_action, FreeGroupMap, "handlebody pi1 action")
        _check_type(self.boundary, SurfaceMonodromy, "boundary monodromy")
        if self.pi1_action.rank != self.genus:
            raise RankMismatchError("handlebody pi1 action must have rank g")
        if not self.pi1_action.has_witness:
            raise MissingPayloadError("handlebody monodromy needs an inverse witness")
        if self.boundary.genus != self.genus:
            raise RankMismatchError("boundary monodromy genus must equal the handlebody genus")
        report = cg_compatibility(self.boundary.action, abelianize(self.pi1_action))
        if not report:
            raise MalformedInputError(
                "boundary is not compatible with the handlebody action: "
                + "; ".join(report.failures))


# --------------------------------------------------------------------------
# Curated catalog
# --------------------------------------------------------------------------

def _standard_curve(genus: int, kind: str, index: int) -> CurveSpec:
    """The core curves of the standard handles.  Payloads are the usual
    Nielsen transformations: twisting along a_i sends b_i to b_i a_i^-1,
    twisting along b_i sends a_i to a_i b_i."""
    if not 1 <= index <= genus:
        raise CatalogError(f"no handle {index} at genus {genus}")
    n = 2 * genus
    a, b = 2 * index - 1, 2 * index
    vec = [0] * n
    images = [[i + 1] for i in range(n)]
    invs = [[i + 1] for i in range(n)]
    if kind == "a":
        vec[a - 1] = 1
        images[b - 1] = [b, -a]
        invs[b - 1] = [b, a]
    elif kind == "b":
        vec[b - 1] = 1
        images[a - 1] = [a, b]
        invs[a - 1] = [a, -b]
    else:
        raise CatalogError(f"unknown curve kind {kind!r}")
    payload = FreeGroupMap.from_letters(n, images, invs)
    return CurveSpec(genus, tuple(vec), payload, name=f"g{genus}_{kind}{index}")


def _stallings_curve(which: int, sign: int) -> CurveSpec:
    """Stallings curves on the square-knot fiber (the boundary of the
    half-spun trefoil).  They arise as doubles of the two band-core arcs of
    the trefoil fiber, so their classes are [b1] and -[b2]; both bound disks
    in the genus-2 handlebody and have fiber framing zero."""
    n = 4
    images = [[1], [2], [3], [4]]
    invs = [[1], [2], [3], [4]]
    if which == 1:
        vec = (0, sign, 0, 0)
        images[0] = [1, 2]
        invs[0] = [1, -2]
    else:
        vec = (0, 0, 0, -sign)
        images[2] = [3, 4]
        invs[2] = [3, -4]
    payload = FreeGroupMap.from_letters(n, images, invs)
    suffix = "" if sign == 1 else "_neg"
    return CurveSpec(2, vec, payload, bounds_disk_in_handlebody=True,
                     unknotted_in_ambient=True, fiber_framing_zero=True,
                     name=f"square_knot_stallings_c{which}{suffix}")


_CATALOG_BUILDERS = {
    "unknot": lambda: SurfaceMonodromy.identity(0),
    "trefoil_R": lambda: SurfaceMonodromy.from_twist_word(
        1, [(_standard_curve(1, "a", 1), 1), (_standard_curve(1, "b", 1), 1)]),
    "trefoil_L": lambda: mirror(_curated_payload("trefoil_R")),
    "figure8": lambda: SurfaceMonodromy.from_twist_word(
        1, [(_standard_curve(1, "a", 1), 1), (_standard_curve(1, "b", 1), -1)]),
    "square_knot": lambda: boundary_connected_sum(_curated_payload("trefoil_R"),
                                                  _curated_payload("trefoil_L")),
    "granny_knot": lambda: boundary_connected_sum(_curated_payload("trefoil_R"),
                                                  _curated_payload("trefoil_R")),
    "g1_a1": lambda: _standard_curve(1, "a", 1),
    "g1_b1": lambda: _standard_curve(1, "b", 1),
    "g2_a1": lambda: _standard_curve(2, "a", 1),
    "g2_b1": lambda: _standard_curve(2, "b", 1),
    "g2_a2": lambda: _standard_curve(2, "a", 2),
    "g2_b2": lambda: _standard_curve(2, "b", 2),
    "square_knot_stallings_c1": lambda: _stallings_curve(1, 1),
    "square_knot_stallings_c1_neg": lambda: _stallings_curve(1, -1),
    "square_knot_stallings_c2": lambda: _stallings_curve(2, 1),
    "square_knot_stallings_c2_neg": lambda: _stallings_curve(2, -1),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG_BUILDERS))


def curated_payload(name: str) -> "CurveSpec | SurfaceMonodromy":
    _check_type(name, str, "catalog name")
    return _curated_payload(name)


@lru_cache(maxsize=None)
def _curated_payload(name: str) -> "CurveSpec | SurfaceMonodromy":
    try:
        builder = _CATALOG_BUILDERS[name]
    except KeyError:
        raise CatalogError(f"unknown catalog name {name!r}") from None
    return builder()
