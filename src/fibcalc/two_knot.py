"""Fibered 2-knots: doubling, spinning, Gluck parity, halving families, and
torus-surgery planning.

A fibered 2-knot is stored by the free-group automorphism of the punctured
(#_g S1 x S2) fiber group together with a Gluck parity bit.  Doubling a disk
preserves the pi1 action, so the two-knot group is the same HNN extension as
the disk exterior's.  Twisting along a sphere is an order-two operation and
only the parity bit moves; twisting along a torus composes the monodromy with
a doubled Dehn-twist action.
"""

from __future__ import annotations

from math import gcd

from .errors import (MalformedInputError, MissingPayloadError, PreconditionError,
                     RankMismatchError, UnsupportedFiberError, _check_int,
                     _check_optional_str, _check_sequence, _check_type, _int_text, _repr_text,
                     field, frozen, replace)
from .fibered import _TWO_KNOT_AMBIENTS, Ambient, FiberedKnot
from .invariants import count_homs, finite_group, group_catalog_names, h1
from .mcg import CurveSpec, SurfaceMonodromy
from .presentation import GroupPresentation, hnn_presentation
from .ribbon_disk import FiberedDisk, _half_spin_action
from .words import FreeGroupMap, FreeWord, compose, handlebody_names


@frozen
class FiberedTwoKnot:
    ambient: Ambient
    fiber_rank: int
    monodromy_pi1: FreeGroupMap
    gluck_parity: int
    provenance: tuple[str, ...] = field(default=(), compare=False)
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.ambient, Ambient) or self.ambient.kind not in _TWO_KNOT_AMBIENTS:
            raise MalformedInputError("a 2-knot ambient must be S4 or homotopy_S4")
        _check_int(self.fiber_rank, "fiber rank")
        if type(self.gluck_parity) is not int or self.gluck_parity not in (0, 1):
            raise MalformedInputError("Gluck parity must be the integer 0 or 1")
        _check_type(self.monodromy_pi1, FreeGroupMap, "two-knot monodromy")
        if self.monodromy_pi1.rank != self.fiber_rank:
            raise RankMismatchError("monodromy rank must equal the fiber rank")
        if not self.monodromy_pi1.has_witness:
            raise MissingPayloadError("two-knot monodromy needs an inverse witness")
        _check_sequence(self.provenance, "provenance")
        if any(type(entry) is not str for entry in self.provenance):
            raise MalformedInputError("provenance entries must be strings")
        object.__setattr__(self, "provenance", tuple(self.provenance))
        _check_optional_str(self.label, "two-knot label")

    @property
    def arose_from_spinning(self) -> bool:
        return any(entry.startswith("spin") for entry in self.provenance)


def double_disk(disk: FiberedDisk, framing: int) -> FiberedTwoKnot:
    """Double a fibered disk along its boundary; the 2-handle framing only
    matters mod 2 and is recorded as the Gluck parity."""
    _check_type(disk, FiberedDisk, "disk")
    _check_int(framing, "framing")
    if not disk.fiber.is_handlebody:
        raise UnsupportedFiberError("doubling needs a handlebody fiber")
    ambient = Ambient.s4() if disk.ambient.kind == "B4" else Ambient("homotopy_S4")
    k = _int_text(framing, "framing")
    label = f"double({disk.label},k={k})" if disk.label is not None else None
    return FiberedTwoKnot(ambient, disk.monodromy.genus, disk.monodromy.pi1_action,
                          framing % 2, (f"double_disk(k={k})",), label)


def spin(knot: FiberedKnot) -> FiberedTwoKnot:
    """The spun 2-knot: the double of the half-spin disk with framing 0.

    `double_disk` reads only a disk's pi1 action and genus, and the
    half-spin's are the knot's pi1 action and 2g, so the spin is built
    directly from those and equals

        replace(double_disk(half_spin(K), 0), provenance=(label,), label=label)

    for its label; the doubled boundary that `half_spin` derives is not
    needed."""
    f = _half_spin_action(knot)
    label = f"spin({knot.label})" if knot.label is not None else "spin"
    return FiberedTwoKnot(Ambient.s4(), 2 * knot.genus, f, 0, (label,), label)


def gluck(two_knot: FiberedTwoKnot) -> FiberedTwoKnot:
    """Gluck twist: toggles the parity; applying it twice is the identity."""
    _check_type(two_knot, FiberedTwoKnot, "two-knot")
    return replace(two_knot, gluck_parity=1 - two_knot.gluck_parity)


def two_knot_group(two_knot: FiberedTwoKnot) -> GroupPresentation:
    _check_type(two_knot, FiberedTwoKnot, "two-knot")
    return hnn_presentation(two_knot.monodromy_pi1,
                            handlebody_names(two_knot.fiber_rank))


@frozen
class FillingDescriptor:
    base: str
    slope: tuple[int, int]

    def __post_init__(self):
        _check_type(self.base, str, "filling base")
        slope = self.slope
        if not (type(slope) in (tuple, list) and len(slope) == 2
                and all(type(x) is int for x in slope)):
            text = _repr_text(slope, "filling slope entry")
            raise MalformedInputError(f"filling slope {text} is not a pair of integers")
        p, q = slope
        for x in slope:  # the descriptor is written as text, Y(p/q)
            _int_text(x, "filling slope entry")
        if gcd(p, q) != 1:
            raise MalformedInputError("filling slope must be a coprime pair")
        object.__setattr__(self, "slope", (p, q))

    def __str__(self):
        p, q = self.slope
        return f"{self.base}({p}/{q})" if q else self.base


@frozen
class ContractibilityReport:
    h1_diagonal: tuple[int, ...]
    trivial_h1: bool
    quotient_checks: tuple[tuple[str, bool], ...]

    @property
    def contractible_consistent(self) -> bool:
        return self.trivial_h1 and all(ok for _, ok in self.quotient_checks)


@frozen
class HalvingFamilyEntry:
    slope: int
    interior_presentation: GroupPresentation
    boundary_descriptor: FillingDescriptor
    contractibility_report: ContractibilityReport


def halving_family(two_knot: FiberedTwoKnot, slopes: list[int],
                   groups: tuple[str, ...] | None = None) -> list[HalvingFamilyEntry]:
    """Express the 2-knot as the double of a disk in a contractible manifold,
    one candidate per 2-handle surgery slope m.

    The interior group presentation adds the relator t (the 2-handle attaches
    along {pt} x S1, and the framing does not enter the presentation), so it
    is the same for every slope.  Boundaries are the fillings Y(-1/m) of one
    common 3-manifold; m = 0 denotes Y itself.  The contractibility report
    records trivial homology plus only-trivial-quotient checks.
    """
    _check_sequence(slopes, "slopes")
    for m in slopes:
        _check_int(m, "slope")
    names = group_catalog_names() if groups is None else groups
    _check_sequence(names, "group names")
    targets = [finite_group(name) for name in names]
    presentation = two_knot_group(two_knot)
    n = presentation.n_generators
    interior = presentation.with_relator(FreeWord(n, (n,)))
    diag = tuple(h1(interior))
    checks = tuple((name, count_homs(interior, g) == 1) for name, g in zip(names, targets))
    report = ContractibilityReport(diag, not diag, checks)
    base = f"Y({two_knot.label})" if two_knot.label else "Y"
    return [HalvingFamilyEntry(m, interior, FillingDescriptor(base, (-1, m)), report)
            for m in slopes]


def seifert_filling_multiplicity(a: int, b: int, m: int) -> int:
    """Multiplicity of the exceptional fiber a (-1/m)-filling introduces when
    the boundary fibration has induced slope a/b: the intersection number
    a*m - b.  (For a = 0 the 0-filling case is degenerate.)"""
    for value in (a, b, m):
        _check_int(value, "slope or filling coefficient")
    if gcd(a, b) != 1:
        raise PreconditionError("slope a/b must be in lowest terms")
    return a * m - b


def torus_twist(two_knot: FiberedTwoKnot, curve: CurveSpec,
                fiber_automorphism: FreeGroupMap | None = None) -> FiberedTwoKnot:
    """Twist along the torus swept out by a curve in a cross-sectional fiber.

    For spun knots the curve's surface twist payload doubles to the fiber
    automorphism; otherwise the caller must supply the induced automorphism
    explicitly."""
    _check_type(two_knot, FiberedTwoKnot, "two-knot")
    _check_type(curve, CurveSpec, "torus twist curve")
    if fiber_automorphism is None:
        if not two_knot.arose_from_spinning:
            raise PreconditionError(
                "torus twist needs spin provenance or an explicit fiber automorphism")
        if curve.pi1_payload is None:
            raise MissingPayloadError("curve has no pi1 payload")
        fiber_automorphism = curve.pi1_payload
    _check_type(fiber_automorphism, FreeGroupMap, "fiber automorphism")
    if fiber_automorphism.rank != two_knot.fiber_rank:
        raise RankMismatchError("automorphism rank must equal the fiber rank")
    if not fiber_automorphism.has_witness:
        raise MissingPayloadError("fiber automorphism needs an inverse witness")
    monodromy = compose(two_knot.monodromy_pi1, fiber_automorphism)
    return replace(two_knot, monodromy_pi1=monodromy,
                   provenance=two_knot.provenance + (f"torus_twist({curve.name or 'c'})",))


@frozen
class PlanEntry:
    phase: int
    torus_id: str
    curve: CurveSpec | None
    twist_sign: int

    def __post_init__(self):
        _check_int(self.phase, "plan phase")
        _check_int(self.twist_sign, "twist sign")
        if self.phase not in (1, 2):
            raise MalformedInputError("plan phase must be 1 or 2")
        _check_type(self.torus_id, str, "torus id")
        if self.curve is not None:
            _check_type(self.curve, CurveSpec, "plan entry curve")
        if self.curve is None and self.twist_sign != 0:
            raise MalformedInputError("a stabilization entry has twist sign 0")
        if self.curve is not None and self.twist_sign not in (1, -1):
            raise MalformedInputError("a twist entry has twist sign +1 or -1")

    @property
    def is_stabilization(self) -> bool:
        return self.curve is None


@frozen
class SurgeryPlan:
    source_genus: int
    target_genus: int
    entries: tuple[PlanEntry, ...]

    def __post_init__(self):
        _check_int(self.source_genus, "source genus")
        _check_int(self.target_genus, "target genus")
        _check_sequence(self.entries, "plan entries")
        for entry in self.entries:
            _check_type(entry, PlanEntry, "plan entry")
        object.__setattr__(self, "entries", tuple(self.entries))


def _twist_word_of(knot: FiberedKnot) -> tuple[tuple[CurveSpec, int], ...]:
    word = knot.monodromy.provenance
    rebuilt = SurfaceMonodromy.from_twist_word(knot.genus, word)
    if rebuilt != knot.monodromy:
        raise PreconditionError("monodromy is not given as an explicit twist word")
    return word


def torus_surgery_plan(source: FiberedKnot, target: FiberedKnot) -> SurgeryPlan:
    """Plan of torus surgeries turning spin(source) into spin(target).

    Equal genus: one phase, twisting along the tori (curve x S1) of the
    reversed twist word of the source followed by the twist word of the
    target.  Larger target genus: a first phase of 2(g2 - g1) stabilizing
    surgeries along a 0-framed unlink of tori, then the monodromy phase.
    """
    _check_type(source, FiberedKnot, "plan source")
    _check_type(target, FiberedKnot, "plan target")
    word1 = _twist_word_of(source)
    word2 = _twist_word_of(target)
    g1, g2 = source.genus, target.genus
    if g1 > g2:
        raise PreconditionError("plan from the smaller genus side; swap the arguments")
    if g1 == g2 and source.monodromy == target.monodromy:
        return SurgeryPlan(g1, g2, ())
    entries: list[PlanEntry] = []
    counter = 0
    if g2 > g1:
        for _ in range(2 * (g2 - g1)):
            counter += 1
            entries.append(PlanEntry(1, f"U{counter}", None, 0))
        word1 = tuple((c.extend(g2, 0), m) for c, m in word1)
    twist_phase = 1 if g1 == g2 else 2
    program = [(c, -1 if m > 0 else 1) for c, m in reversed(word1) for _ in range(abs(m))]
    program += [(c, 1 if m > 0 else -1) for c, m in word2 for _ in range(abs(m))]
    tcount = 0
    for c, sign in program:
        tcount += 1
        entries.append(PlanEntry(twist_phase, f"T{tcount}", c, sign))
    return SurgeryPlan(g1, g2, tuple(entries))


def _stabilize(two_knot: FiberedTwoKnot) -> FiberedTwoKnot:
    """One 0-framed torus surgery adding an S1 x S2 fiber summand: the fiber
    rank grows by one and the monodromy extends by the identity."""
    rank = two_knot.fiber_rank + 1
    return replace(two_knot, fiber_rank=rank,
                   monodromy_pi1=two_knot.monodromy_pi1.extend(rank, 0),
                   provenance=two_knot.provenance + ("stabilize",))


def execute_plan(two_knot: FiberedTwoKnot, plan: SurgeryPlan) -> FiberedTwoKnot:
    """Replay a plan on monodromy data: stabilizations extend the fiber,
    twist entries compose doubled Dehn-twist actions."""
    _check_type(two_knot, FiberedTwoKnot, "two-knot")
    _check_type(plan, SurgeryPlan, "surgery plan")
    current = two_knot
    for entry in plan.entries:
        if entry.is_stabilization:
            current = _stabilize(current)
        else:
            payload = entry.curve.pi1_payload
            if payload is None:
                raise MissingPayloadError("plan entry curve has no pi1 payload")
            current = torus_twist(current, entry.curve,
                                  fiber_automorphism=payload.power(entry.twist_sign))
    return current
