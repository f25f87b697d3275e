"""Fibered 1-knots carried by monodromy data.

A fibered knot of genus g is stored as a monodromy of the once-punctured
genus-g surface: always the symplectic action on homology, and where the
catalog provides one, the free-group automorphism of rank 2g.  The knot group
is the HNN extension over the fiber group, and the Alexander polynomial is
the characteristic polynomial of the homological action.
"""

from __future__ import annotations

from .errors import (CatalogError, InapplicableError, MalformedInputError,
                     MissingPayloadError, PreconditionError, RankMismatchError,
                     _check_int, _check_optional_str, _check_type, _int_text, field,
                     frozen)
from .laurent import LaurentPoly, normalize_alexander
from .matrices import _char_poly
from .mcg import (CurveSpec, SurfaceMonodromy, boundary_connected_sum,
                  compose_monodromy, curated_payload, mirror, twist_monodromy)
from .presentation import GroupPresentation, hnn_presentation
from .words import surface_names


_KNOT_AMBIENTS = ("S3", "homology_sphere")
_DISK_AMBIENTS = ("B4", "homotopy_B4", "contractible")
_TWO_KNOT_AMBIENTS = ("S4", "homotopy_S4")


@frozen
class Ambient:
    kind: str
    descriptor: str | None = None

    def __post_init__(self):
        _check_optional_str(self.descriptor, "ambient descriptor")
        if self.kind not in _KNOT_AMBIENTS + _DISK_AMBIENTS + _TWO_KNOT_AMBIENTS:
            raise MalformedInputError(f"unknown ambient tag {self.kind!r}")
        needs_descriptor = self.kind in ("homology_sphere", "contractible")
        if needs_descriptor and not self.descriptor:
            raise MalformedInputError(f"ambient {self.kind!r} needs a descriptor")
        if not needs_descriptor and self.descriptor is not None:
            raise MalformedInputError(f"ambient {self.kind!r} takes no descriptor")

    @classmethod
    def s3(cls) -> "Ambient":
        return cls("S3")

    @classmethod
    def b4(cls) -> "Ambient":
        return cls("B4")

    @classmethod
    def s4(cls) -> "Ambient":
        return cls("S4")

    def __str__(self):
        return self.kind if self.descriptor is None else f"{self.kind}({self.descriptor})"


@frozen
class FiberedKnot:
    ambient: Ambient
    genus: int
    monodromy: SurfaceMonodromy
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.ambient, Ambient) or self.ambient.kind not in _KNOT_AMBIENTS:
            raise MalformedInputError("a 1-knot ambient must be S3 or a homology sphere")
        _check_int(self.genus, "genus")
        _check_type(self.monodromy, SurfaceMonodromy, "knot monodromy")
        _check_optional_str(self.label, "knot label")
        if self.monodromy.genus != self.genus:
            raise RankMismatchError("monodromy genus must equal the knot genus")


def knot_group(knot: FiberedKnot) -> GroupPresentation:
    """HNN presentation < x_1..x_2g, t | t x_i t^-1 = phi(x_i) > of the knot
    group.  Knots without a pi1 payload run in the homology-only degraded
    mode and do not have a presentation; use alexander_poly there."""
    _check_type(knot, FiberedKnot, "knot")
    if knot.monodromy.pi1_action is None:
        raise MissingPayloadError(
            "knot carries homological data only; no group presentation available")
    return hnn_presentation(knot.monodromy.pi1_action, surface_names(knot.genus))


def alexander_poly(knot: FiberedKnot) -> LaurentPoly:
    """det(tI - A) for the homological monodromy A, unit-normalized.

    A is symplectic: the `SurfaceMonodromy` constructor checks it, and each
    builder that skips the check combines symplectic pieces.  So A^-1 =
    -J A^T J is similar to A^T and det A = 1, det(tI - A) is reciprocal, and
    `matrices._char_poly` gets it from the g power sums tr(A^j), j <= g, by
    Newton's identities, whose divisions are exact over Z: g packed
    matrix-vector steps and no matrix product, half the power sums of the
    general `char_poly`."""
    _check_type(knot, FiberedKnot, "knot")
    return normalize_alexander(_char_poly(knot.monodromy.action, knot.monodromy.genus))


def stallings_twist(knot: FiberedKnot, curve: CurveSpec, m: int) -> FiberedKnot:
    """Recut the fibration along a framing-zero curve in a fiber and twist m
    times: the monodromy becomes phi o tau_c^m."""
    _check_type(knot, FiberedKnot, "knot")
    _check_type(curve, CurveSpec, "twist curve")
    _check_int(m, "twist count")
    if not curve.fiber_framing_zero:
        raise PreconditionError("Stallings twist needs a curve with fiber framing zero")
    if curve.genus != knot.genus:
        raise RankMismatchError("curve genus must match the knot genus")
    if m == 0:
        return knot
    monodromy = compose_monodromy(knot.monodromy, twist_monodromy(curve, m))
    label = None
    if knot.label is not None:
        label = f"stallings_twist({knot.label},{curve.name or 'c'},{_int_text(m, 'twist count')})"
    return FiberedKnot(knot.ambient, knot.genus, monodromy, label)


def distinctness_bound(m: int, g: int) -> bool:
    """True when twisting m times along a Stallings curve on a genus-g fiber
    (g >= 2) provably changes the knot: |m| = 1 or |m| > 9g - 3.  False means
    the criterion is silent, not that the knots agree."""
    _check_int(m, "twist count")
    _check_int(g, "genus")
    if g < 2:
        raise InapplicableError("the distinctness criterion assumes genus >= 2")
    return abs(m) == 1 or abs(m) > 9 * g - 3


def connected_sum(k1: FiberedKnot, k2: FiberedKnot) -> FiberedKnot:
    _check_type(k1, FiberedKnot, "summand")
    _check_type(k2, FiberedKnot, "summand")
    if k1.ambient != k2.ambient:
        raise PreconditionError("connected sum needs matching ambient manifolds")
    label = None
    if k1.label is not None and k2.label is not None:
        label = f"connected_sum({k1.label},{k2.label})"
    return FiberedKnot(k1.ambient, k1.genus + k2.genus,
                       boundary_connected_sum(k1.monodromy, k2.monodromy), label)


def mirror_knot(knot: FiberedKnot) -> FiberedKnot:
    _check_type(knot, FiberedKnot, "knot")
    label = f"mirror({knot.label})" if knot.label is not None else None
    return FiberedKnot(knot.ambient, knot.genus, mirror(knot.monodromy), label)


def dual_knot_surgery_descriptor(knot: FiberedKnot, n: int) -> FiberedKnot:
    """The dual knot of (1/n)-surgery: same exterior, so identical monodromy
    data, retagged into the surgered homology sphere."""
    _check_type(knot, FiberedKnot, "knot")
    _check_int(n, "surgery denominator")
    if knot.ambient.kind != "S3":
        raise PreconditionError("surgery descriptor is defined for knots in S3")
    if n == 0:
        raise PreconditionError("0-surgery does not yield a homology sphere")
    name, text = knot.label or "K", _int_text(n, "surgery denominator")
    ambient = Ambient("homology_sphere", f"S3_{{1/{text}}}({name})")
    label = f"dual({name},1/{text})"
    return FiberedKnot(ambient, knot.genus, knot.monodromy, label)


def catalog_knot(name: str) -> FiberedKnot:
    entry = curated_payload(name)
    if not isinstance(entry, SurfaceMonodromy):
        raise CatalogError(f"catalog entry {name!r} is not a knot monodromy")
    return FiberedKnot(Ambient.s3(), entry.genus, entry, name)

