"""Fibered disk-knots with handlebody fibers.

The central construction is the half-spin: crossing a punctured knot exterior
with an interval gives a ribbon disk for K # (-K) whose fiber is the
handlebody of genus 2g.  Its boundary is the doubled surface monodromy,
expressed in a symplectic basis adapted to the handlebody so that the kernel
of the inclusion is the standard Lagrangian span{[b_i]}:

    a_{2i-1} = alpha_i on the first copy        b_{2i-1} = beta_i^0 - beta_i^1
    a_{2i}   = beta_i on the second copy        b_{2i}   = alpha_i^1 - alpha_i^0

The doubled boundary is derived, not assembled: with c the free-group change
of generators from this adapted basis to the two-copy basis (built once per
genus through the checked constructor), its payload is c^-1 (phi + phi) c and
its action abelianize(c^-1) (A + A) abelianize(c).  Abelianization is a
homomorphism, so the payload abelianizes to the action.  The action is
symplectic because abelianize(c) is an isometry from the doubled surface's
form J to the form J + (-J) of the two copies, which A + A preserves because
A preserves J.

The half-spin's handlebody monodromy is derived too.  phi + phi maps the
differences beta^0 - beta^1 and alpha^1 - alpha^0, the b-classes, to
differences, so span{[b_i]} is preserved; and on the quotient, where the
a-classes are the classes of the knot fiber, it acts by A = abelianize(phi),
which the knot's checked monodromy guarantees.  So neither value goes
through `cg_compatibility`; the `HandlebodyMonodromy` constructor, used by
callers and the JSON loader, still checks it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (MalformedInputError, MissingPayloadError, PreconditionError,
                     RankMismatchError, UnsupportedFiberError, _check_int,
                     _check_optional_str, _check_type, _int_text, _unchecked, field,
                     frozen)
from .matrices import IntMatrix, block_diag, smith_diagonal
from .mcg import (CurveSpec, HandlebodyMonodromy, SurfaceMonodromy, _twist_word,
                  compose_monodromy, twist_monodromy)
from .fibered import _DISK_AMBIENTS, Ambient, FiberedKnot
from .presentation import GroupPresentation, hnn_presentation
from .words import FreeGroupMap, FreeWord, abelianize, compose, handlebody_names


@frozen
class FiberType:
    genus: int
    summand_label: str | None = None

    def __post_init__(self):
        _check_int(self.genus, "fiber genus")
        _check_optional_str(self.summand_label, "fiber summand label")
        if self.genus < 0:
            raise MalformedInputError("fiber genus must be nonnegative")

    @property
    def is_handlebody(self) -> bool:
        return self.summand_label is None


@frozen
class FiberedDisk:
    ambient: Ambient
    fiber: FiberType
    monodromy: HandlebodyMonodromy
    twist_history: tuple[tuple[CurveSpec, int], ...] = ()
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.ambient, Ambient) or self.ambient.kind not in _DISK_AMBIENTS:
            raise MalformedInputError("a disk ambient must be B4, homotopy_B4 or contractible")
        _check_type(self.fiber, FiberType, "disk fiber")
        _check_type(self.monodromy, HandlebodyMonodromy, "disk monodromy")
        _check_optional_str(self.label, "disk label")
        if self.fiber.genus != self.monodromy.genus:
            raise RankMismatchError("fiber genus must match the monodromy genus")
        object.__setattr__(self, "twist_history", _twist_word(self.twist_history, "twist history"))


@lru_cache(maxsize=16)
def _doubling_change_of_basis(genus: int) -> tuple[FreeGroupMap, FreeGroupMap]:
    """Free-group change of generators between the adapted basis of the
    doubled surface and the two-copy (u, v) bookkeeping basis.

    u_k is generator k of the first copy, v_k = generator 2g+k the second.
    """
    n = 4 * genus
    c_images = [None] * n
    cinv_images = [None] * n
    for i in range(1, genus + 1):
        u_odd, u_even = 2 * i - 1, 2 * i
        v_odd, v_even = 2 * genus + 2 * i - 1, 2 * genus + 2 * i
        a_odd, b_odd, a_even, b_even = 4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i
        c_images[a_odd - 1] = FreeWord(n, (u_odd,))
        c_images[b_odd - 1] = FreeWord(n, (u_even, -v_even))
        c_images[a_even - 1] = FreeWord(n, (v_even,))
        c_images[b_even - 1] = FreeWord(n, (v_odd, -u_odd))
        cinv_images[u_odd - 1] = FreeWord(n, (a_odd,))
        cinv_images[u_even - 1] = FreeWord(n, (b_odd, a_even))
        cinv_images[v_odd - 1] = FreeWord(n, (b_even, a_odd))
        cinv_images[v_even - 1] = FreeWord(n, (a_even,))
    c = FreeGroupMap(n, tuple(c_images), tuple(cinv_images))
    return c, c.inverse()


def doubled_boundary(monodromy: SurfaceMonodromy) -> SurfaceMonodromy:
    """Boundary monodromy of (fiber x I, phi x id): the double of phi on the
    genus-2g surface, written in the adapted basis above."""
    _check_type(monodromy, SurfaceMonodromy, "monodromy")
    g, a = monodromy.genus, monodromy.action
    c, cinv = _doubling_change_of_basis(g)
    action = abelianize(cinv).mul(block_diag(a, a)).mul(abelianize(c))
    payload = None
    f = monodromy.pi1_action
    if f is not None and f.has_witness:
        two_copies = compose(f.extend(4 * g, 0), f.extend(4 * g, 2 * g))
        payload = compose(compose(cinv, two_copies), c)
    return _unchecked(SurfaceMonodromy, 2 * g, action, payload, ())


def _half_spin_action(knot: FiberedKnot) -> FreeGroupMap:
    """The pi1 action of the half-spin of `knot`, which is the knot's own:
    the entry checks of `half_spin`, shared with `two_knot.spin`."""
    _check_type(knot, FiberedKnot, "knot")
    if knot.ambient.kind != "S3":
        raise PreconditionError("half-spin is defined for knots in S3")
    f = knot.monodromy.pi1_action
    if f is None or not f.has_witness:
        raise MissingPayloadError("half-spin needs the knot's pi1 payload with witness")
    return f


def half_spin(knot: FiberedKnot) -> FiberedDisk:
    """The ribbon disk for K # (-K) given by (punctured exterior) x I, with
    fiber the genus-2g handlebody and monodromy phi x id."""
    f = _half_spin_action(knot)
    g = knot.genus
    hb = _unchecked(HandlebodyMonodromy, 2 * g, f, doubled_boundary(knot.monodromy))
    label = f"half_spin({knot.label})" if knot.label is not None else None
    return FiberedDisk(Ambient.b4(), FiberType(2 * g), hb, (), label)


def boundary_knot(disk: FiberedDisk) -> FiberedKnot:
    """The fibered knot on the boundary, with the stored boundary monodromy."""
    _check_type(disk, FiberedDisk, "disk")
    if disk.ambient.kind == "contractible":
        ambient = Ambient("homology_sphere", f"boundary({disk.ambient.descriptor})")
    else:
        # the boundary of a (homotopy) 4-ball is the 3-sphere
        ambient = Ambient.s3()
    label = f"boundary({disk.label})" if disk.label is not None else None
    return FiberedKnot(ambient, disk.monodromy.genus, disk.monodromy.boundary, label)


def disk_twist(disk: FiberedDisk, curve: CurveSpec, m: int) -> FiberedDisk:
    """Twist the monodromy m times along a properly embedded disk in a fiber
    whose boundary is `curve`.

    The handlebody pi1 action is unchanged (the operation is a 2-handle
    surgery, which preserves the exterior's fundamental group and homology);
    only the boundary monodromy picks up the twist.  If the disk is not known
    to be unknotted in the ambient 4-ball, the ambient degrades to a homotopy
    4-ball instead of erroring.

    The twisted handlebody monodromy is built without re-checking Lagrangian
    compatibility: the curve's class c lies in the isotropic span{[b_i]}, so
    the transvection x -> x + m <x, c> c fixes that span pointwise and moves
    every class by a multiple of c, which induces the identity on the
    quotient; the composite is compatible exactly when the old boundary is.
    """
    _check_type(disk, FiberedDisk, "disk")
    _check_type(curve, CurveSpec, "twist curve")
    _check_int(m, "twist count")
    if not curve.bounds_disk_in_handlebody:
        raise PreconditionError("disk twist needs a curve bounding a disk in the handlebody")
    if curve.genus != disk.monodromy.genus:
        raise RankMismatchError("curve lives on the wrong boundary surface")
    if m == 0:
        return disk
    boundary = compose_monodromy(disk.monodromy.boundary, twist_monodromy(curve, m))
    hb = _unchecked(HandlebodyMonodromy, disk.monodromy.genus, disk.monodromy.pi1_action,
                    boundary)
    ambient = disk.ambient
    if not curve.unknotted_in_ambient and ambient.kind == "B4":
        ambient = Ambient("homotopy_B4")
    label = None
    if disk.label is not None:
        label = f"disk_twist({disk.label},{curve.name or 'E'},{_int_text(m, 'twist count')})"
    return FiberedDisk(ambient, disk.fiber, hb, disk.twist_history + ((curve, m),), label)


def is_homotopy_ribbon(disk: FiberedDisk) -> bool:
    """A fibered disk is homotopy-ribbon exactly when its fiber is a plain
    handlebody (no extra closed summand)."""
    _check_type(disk, FiberedDisk, "disk")
    return disk.fiber.is_handlebody


def exterior_presentation(disk: FiberedDisk) -> GroupPresentation:
    """HNN presentation < x_1..x_g, t | t x_i t^-1 = phi(x_i) > of the disk
    exterior group."""
    _check_type(disk, FiberedDisk, "disk")
    if not disk.fiber.is_handlebody:
        raise UnsupportedFiberError("exterior presentations need a handlebody fiber")
    g = disk.monodromy.genus
    return hnn_presentation(disk.monodromy.pi1_action, handlebody_names(g))


def boundary_surjectivity_check(disk: FiberedDisk,
                                identification: IntMatrix | None = None) -> bool:
    """Whether the inclusion-induced map H1(fiber boundary) -> H1(fiber) is
    onto.  The standard identification (a_i -> x_i, b_i -> 0) always is; a
    user-supplied g x 2g matrix is checked by Smith normal form."""
    _check_type(disk, FiberedDisk, "disk")
    if identification is not None:
        _check_type(identification, IntMatrix, "identification")
    if not disk.fiber.is_handlebody:
        raise UnsupportedFiberError("surjectivity check needs a handlebody fiber")
    g = disk.monodromy.genus
    if identification is None:
        return True
    if (identification.rows, identification.cols) != (g, 2 * g):
        raise RankMismatchError("identification must be a g x 2g matrix")
    if g == 0:
        return True
    diag = smith_diagonal(identification)
    return sum(1 for d in diag if d == 1) == g
