"""Monodromies, curves and disks derived from checked values are built without
a second check.  These tests rebuild every derived value through the full
checked constructor and require an equal result, so a derivation that broke
a fact the constructor checks (symplectic action, payload abelianizing to the
action, Lagrangian compatibility, normalized fields) would fail here."""

from hypothesis import given, settings, strategies as st

from fibcalc.fibered import Ambient, FiberedKnot, stallings_twist
from fibcalc.mcg import (CurveSpec, HandlebodyMonodromy, SurfaceMonodromy,
                         boundary_connected_sum, compose_monodromy, curated_payload,
                         mirror, twist_monodromy)
from fibcalc.ribbon_disk import disk_twist, half_spin
from fibcalc.words import FreeGroupMap

STALLINGS = tuple(curated_payload(f"square_knot_stallings_c{i}{s}")
                  for i in (1, 2) for s in ("", "_neg"))


def curves(genus):
    names = [f"g{genus}_{k}{i}" for k in "ab" for i in range(1, genus + 1)]
    out = tuple(curated_payload(name) for name in names)
    return out + STALLINGS if genus == 2 else out


def twist_words(genus, max_len=5):
    return st.lists(st.tuples(st.sampled_from(curves(genus)), st.integers(-3, 3)),
                    max_size=max_len)


def recheck_map(f):
    if f is not None:
        assert FreeGroupMap(f.rank, f.images, f.inverse_images) == f


def recheck_curve(c):
    assert CurveSpec(c.genus, c.homology_class, c.pi1_payload, c.bounds_disk_in_handlebody,
                     c.unknotted_in_ambient, c.fiber_framing_zero, c.name) == c
    recheck_map(c.pi1_payload)


def recheck(m):
    assert SurfaceMonodromy(m.genus, m.action, m.pi1_action, m.provenance) == m
    recheck_map(m.pi1_action)
    for c, _ in m.provenance:
        recheck_curve(c)


def recheck_handlebody(h):
    assert HandlebodyMonodromy(h.genus, h.pi1_action, h.boundary) == h
    recheck(h.boundary)


@given(twist_words(1), twist_words(2), st.data())
@settings(max_examples=40, deadline=None)
def test_derived_values_pass_the_full_check(word1, word2, data):
    m1 = SurfaceMonodromy.from_twist_word(1, word1)
    m2 = SurfaceMonodromy.from_twist_word(2, word2)
    for m in (m1, m2, SurfaceMonodromy.identity(2)):
        recheck(m)
        recheck(mirror(m))
    c, k = data.draw(st.sampled_from(curves(2))), data.draw(st.integers(-3, 3))
    recheck(twist_monodromy(c, k))
    recheck(compose_monodromy(m2, twist_monodromy(c, k)))
    recheck(compose_monodromy(mirror(m2), m2))
    total = boundary_connected_sum(m1, m2)
    recheck(total)
    recheck(boundary_connected_sum(m2, mirror(m1)))
    offset = data.draw(st.integers(0, 1))
    recheck_curve(c.extend(3, offset))
    recheck(compose_monodromy(total, twist_monodromy(c.extend(3, offset), k)))

    stallings = data.draw(st.sampled_from(STALLINGS))
    m = data.draw(st.integers(-3, 3))
    knot = stallings_twist(FiberedKnot(Ambient.s3(), 2, m2), stallings, m)
    recheck(knot.monodromy)
    disk = half_spin(FiberedKnot(Ambient.s3(), 1, m1))
    for _ in range(data.draw(st.integers(1, 3))):
        disk = disk_twist(disk, data.draw(st.sampled_from(STALLINGS)),
                          data.draw(st.integers(-3, 3)))
        recheck_handlebody(disk.monodromy)
