"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its stated wall-clock budget."""

import random
import time
from contextlib import contextmanager

from fibcalc import serialize
from fibcalc.fibered import (alexander_poly, catalog_knot, connected_sum,
                             distinctness_bound, knot_group, stallings_twist)
from fibcalc.invariants import alexander_from_presentation, count_homs, finite_group, h1
from fibcalc.laurent import normalize_alexander
from fibcalc.matrices import IntMatrix, char_poly, smith_normal_form
from fibcalc.mcg import SurfaceMonodromy, catalog_names, curated_payload
from fibcalc.ribbon_disk import (boundary_knot, disk_twist, exterior_presentation,
                                 half_spin)
from fibcalc.script import execute, parse_script, reports_to_json
from fibcalc.two_knot import (double_disk, execute_plan, gluck, halving_family,
                              seifert_filling_multiplicity, spin,
                              torus_surgery_plan, torus_twist, two_knot_group)
from fibcalc.words import FreeWord, abelianize, compose
from oracles import fox_derivatives, fox_formula_gap, trefoil_two_bridge_presentation

CATALOG_KNOTS = ("unknot", "trefoil_R", "trefoil_L", "figure8", "square_knot",
                 "granny_knot")


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{criterion} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def random_fibered_monodromy(rng) -> SurfaceMonodromy:
    """Random twist word on a genus <= 2 fiber presenting a fibered knot in a
    homology sphere: resample until |det(I - A)| = 1 (equivalently H1 = Z)."""
    while True:
        g = rng.choice([1, 2])
        kinds = [f"g{g}_{k}{i}" for k in "ab" for i in range(1, g + 1)]
        word = [(curated_payload(rng.choice(kinds)), rng.choice([-1, 1]))
                for _ in range(rng.randint(1, 8))]
        m = SurfaceMonodromy.from_twist_word(g, word)
        delta_at_1 = IntMatrix.from_rows([[(i == j) - x for j, x in enumerate(row)]
                                          for i, row in enumerate(m.action.entries)]).det()
        if abs(delta_at_1) == 1:
            return m


def test_criterion_1_alexander_suite():
    with budget("1 alexander-suite", 1.0):
        expected = {
            "unknot": [1],
            "trefoil_R": [1, -1, 1],
            "square_knot": [1, -2, 3, -2, 1],
        }
        for name, coeffs in expected.items():
            k = catalog_knot(name)
            via_char = alexander_poly(k)
            via_fox = alexander_from_presentation(knot_group(k))
            assert via_char.dense_coeffs() == coeffs
            assert via_fox == via_char


def test_criterion_2_route_equivalence():
    with budget("2 route-equivalence", 30.0):
        from fibcalc.fibered import Ambient, FiberedKnot
        rng = random.Random(20240817)
        for _ in range(50):
            m = random_fibered_monodromy(rng)
            knot = FiberedKnot(Ambient.s3(), m.genus, m)
            via_char = alexander_poly(knot)
            via_fox = alexander_from_presentation(knot_group(knot))
            assert via_fox == via_char
            assert via_char.dense_coeffs() == via_char.dense_coeffs()[::-1]
        for name in CATALOG_KNOTS:
            assert abs(alexander_poly(catalog_knot(name)).evaluate(1)) == 1


def test_criterion_3_disk_twist_family():
    with budget("3 theorem-2-family", 5.0):
        disk = half_spin(catalog_knot("trefoil_R"))
        curve = curated_payload("square_knot_stallings_c1")
        base = serialize.dumps(exterior_presentation(disk))
        for m in range(-2, 3):
            twisted = disk_twist(disk, curve, m)
            assert serialize.dumps(exterior_presentation(twisted)) == base
            lhs = boundary_knot(twisted)
            rhs = stallings_twist(boundary_knot(disk), curve, m)
            assert lhs.monodromy == rhs.monodromy and lhs.ambient == rhs.ambient
        assert distinctness_bound(1, 2) is True
        assert distinctness_bound(16, 2) is True
        assert distinctness_bound(10, 2) is False


def test_criterion_4_gluck_parity_collapse():
    with budget("4 gluck-parity", 1.0):
        disk = half_spin(catalog_knot("trefoil_R"))
        curve = curated_payload("square_knot_stallings_c1")
        pairs = set()
        presentations = set()
        for m in range(-3, 4):
            doubled = double_disk(disk_twist(disk, curve, m), m)
            text = serialize.dumps(two_knot_group(doubled))
            pairs.add((text, doubled.gluck_parity))
            presentations.add(text)
        assert len(presentations) == 1
        assert len(pairs) <= 2
        s = spin(catalog_knot("trefoil_R"))
        assert gluck(gluck(s)) == s


def test_criterion_5_halving_family():
    with budget("5 theorem-3-family", 10.0):
        s = spin(catalog_knot("trefoil_R"))
        entries = halving_family(s, list(range(6)), groups=("S3", "S4", "A4"))
        first = entries[0].interior_presentation
        for e in entries:
            assert e.interior_presentation == first
            assert h1(e.interior_presentation) == []
            assert e.contractibility_report.trivial_h1
            assert all(ok for _, ok in e.contractibility_report.quotient_checks)
            assert e.boundary_descriptor.slope == (-1, e.slope)
            assert e.boundary_descriptor.base == entries[0].boundary_descriptor.base
        for name in ("S3", "S4", "A4"):
            assert count_homs(first, finite_group(name)) == 1
        assert seifert_filling_multiplicity(2, 3, 5) == 7


def test_criterion_6_spin_invariance():
    with budget("6 spin-invariance", 60.0):
        for name in CATALOG_KNOTS:
            k = catalog_knot(name)
            spun = spin(k)
            spun_alex = normalize_alexander(char_poly(abelianize(spun.monodromy_pi1)))
            assert spun_alex == alexander_poly(k)
        s3 = finite_group("S3")
        hnn_count = count_homs(two_knot_group(spin(catalog_knot("trefoil_R"))), s3)
        bridge_count = count_homs(trefoil_two_bridge_presentation(), s3)
        assert hnn_count == bridge_count


def test_criterion_7_torus_surgery_planner():
    with budget("7 theorem-6-planner", 5.0):
        trefoil = catalog_knot("trefoil_R")
        fig8 = catalog_knot("figure8")
        plan = torus_surgery_plan(trefoil, fig8)
        assert {e.phase for e in plan.entries} == {1}
        replayed = execute_plan(spin(trefoil), plan)
        target = spin(fig8)
        assert (replayed.ambient, replayed.fiber_rank, replayed.monodromy_pi1,
                replayed.gluck_parity) == (target.ambient, target.fiber_rank,
                                           target.monodromy_pi1, target.gluck_parity)
        genus3 = connected_sum(connected_sum(trefoil, trefoil), trefoil)
        plan13 = torus_surgery_plan(trefoil, genus3)
        stabilizers = [e for e in plan13.entries if e.phase == 1]
        assert len(stabilizers) == 4
        assert all(e.is_stabilization for e in stabilizers)
        replay13 = execute_plan(spin(trefoil), plan13)
        assert replay13.monodromy_pi1 == spin(genus3).monodromy_pi1
        # commuting square for the catalog Stallings curve
        sq = catalog_knot("square_knot")
        c1 = curated_payload("square_knot_stallings_c1")
        assert spin(stallings_twist(sq, c1, 1)) == torus_twist(spin(sq), c1)


def test_criterion_8_algebra_substrate():
    with budget("8 algebra-substrate", 30.0):
        rng = random.Random(1729)
        for _ in range(200):
            w = FreeWord(3, tuple(rng.choice([-1, 1]) * rng.randint(1, 3)
                                  for _ in range(rng.randint(0, 10))))
            assert fox_formula_gap(w, fox_derivatives(w)) == {}
        for _ in range(100):
            a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(5)]
                                     for _ in range(5)])
            d, u, v = smith_normal_form(a)
            assert u.mul(a).mul(v) == d
            diag = [d.entries[i][i] for i in range(5)]
            nonzero = [x for x in diag if x]
            assert diag == nonzero + [0] * (5 - len(nonzero))
            for i in range(len(nonzero) - 1):
                assert nonzero[i + 1] % nonzero[i] == 0
            assert u.det() in (1, -1) and v.det() in (1, -1)
        for _ in range(200):
            letters = tuple(rng.choice([-1, 1]) * rng.randint(1, 3)
                            for _ in range(rng.randint(0, 12)))
            w = FreeWord(3, letters)
            assert FreeWord(3, w.letters) == w
            assert (w * w.inverse()).letters == ()
        for _ in range(50):
            f = random_fibered_monodromy(rng).pi1_action
            g = random_fibered_monodromy(rng).pi1_action
            if f.rank != g.rank:
                continue
            assert abelianize(compose(f, g)) == abelianize(f).mul(abelianize(g))


def test_criterion_9_cli_round_trip():
    with budget("9 cli-round-trip", 5.0):
        for name in catalog_names():
            entry = curated_payload(name)
            assert serialize.loads(serialize.dumps(entry)) == entry
        for name in CATALOG_KNOTS:
            knot = catalog_knot(name)
            assert serialize.loads(serialize.dumps(knot)) == knot
        text = ("K = load trefoil_R\nreport K\nS = spin K\nreport S\n"
                "Q = load square_knot\nreport Q\n")
        script = parse_script(text)
        assert script.text() == text
        assert parse_script(script.text()) == script
        run1 = reports_to_json(execute(text))
        run2 = reports_to_json(execute(text))
        assert run1 == run2
