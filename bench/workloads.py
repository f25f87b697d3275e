"""Seeded workloads: input generation, the operations and their reference
checks.

An operation has a kind, arguments made at generation time and an optional
tag that names its step in a sweep (`g3`, `n5`).  Each kind has two
functions:

* `run(args)` calls fibcalc's public API as a user would and returns the
  operation's output (text or a tuple);
* `check(args, output)` compares the output with `reference`, which does not
  use fibcalc, and with relations the constructions must satisfy.  It
  returns a list of problems; the empty list means correct.

The traced run calls the same `run` with fibcalc's functions wrapped in
spans (see `tracing.instrument`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod

import reference as ref
from fibcalc import cli, serialize
from fibcalc.fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot,
                             connected_sum, stallings_twist)
from fibcalc.invariants import alexander_from_presentation, h1
from fibcalc.matrices import IntMatrix
from fibcalc.mcg import SurfaceMonodromy, curated_payload, symplectic_form, transvection
from fibcalc.presentation import hnn_presentation
from fibcalc.ribbon_disk import boundary_knot, disk_twist, exterior_presentation, half_spin
from fibcalc.two_knot import execute_plan, spin, torus_surgery_plan
from fibcalc.words import FreeGroupMap, abelianize, compose, surface_names

GENUS1 = ("trefoil_R", "trefoil_L", "figure8")
CURVES = tuple(ref.STALLINGS_CLASSES)
# Twist counts on the genus-2 square-knot fiber: |m| = 1 or 9g - 2 <= m <= 9g + 22,
# the range where the distinctness criterion |m| > 9g - 3 applies.
M_VALUES = (-1, 1) + tuple(range(16, 41))
ALEXANDER_GENERA = (1, 2, 3, 4, 5, 5, 5, 5, 6, 6)
POWERS = tuple(range(1, 8))
HOM_GROUPS = ("Z2", "Z3", "Z5")


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    tag: str | None = None


def _sum_knot(names):
    knot = catalog_knot(names[0])
    for name in names[1:]:
        knot = connected_sum(knot, catalog_knot(name))
    return knot


def _dumped(obj) -> str:
    """Canonical JSON of `obj`, loaded back once: loading re-validates the
    object at the trust boundary, so it is part of the operation."""
    text = serialize.dumps(obj)
    serialize.loads(text)
    return text


def _round_trip(text: str, obj) -> list[str]:
    back = serialize.loads(text)
    problems = []
    if back != obj:
        problems.append("JSON round trip changed the object")
    if serialize.dumps(back) != text:
        problems.append("JSON round trip changed the bytes")
    return problems


# --------------------------------------------------------------------------
# alexander: dense homology-only knots and conjugated HNN presentations
# --------------------------------------------------------------------------

def _dense(m: IntMatrix) -> bool:
    return all(x for row in m.entries for x in row)


def _dense_conjugate(rng, action: IntMatrix) -> IntMatrix:
    """P A P^-1 for a random symplectic P (a product of random transvections),
    redrawn until no entry is zero."""
    genus = action.rows // 2
    j = symplectic_form(genus)
    while True:
        p = IntMatrix.identity(2 * genus)
        for _ in range(genus + 2):
            vec = [rng.choice((-1, 0, 1)) for _ in range(2 * genus)]
            p = p.mul(transvection(vec, rng.choice((-1, 1))))
        p_inv = j.mul(p.transpose()).mul(j).neg()  # P^-1 = -J P^T J since J^2 = -I
        conjugate = p.mul(action).mul(p_inv)
        if _dense(conjugate):
            return conjugate


def _nielsen_conjugate(rng, f: FreeGroupMap, letters: int) -> FreeGroupMap:
    """N f N^-1 for a random product N of witnessed Nielsen moves
    x_i -> x_i x_j^+-1, with moves added until the images hold at least
    `letters` letters."""
    rank = f.rank
    nielsen = FreeGroupMap.identity(rank)
    out = f
    while sum(len(w) for w in out.images) < letters:
        i, j = rng.sample(range(1, rank + 1), 2)
        sign = rng.choice((1, -1))
        images = [[x] for x in range(1, rank + 1)]
        inverses = [[x] for x in range(1, rank + 1)]
        images[i - 1] = [i, sign * j]
        inverses[i - 1] = [i, -sign * j]
        nielsen = compose(nielsen, FreeGroupMap.from_letters(rank, images, inverses))
        out = compose(compose(nielsen, f), nielsen.inverse())
    return out


def alexander_input(rng, genus: int) -> Op:
    names = tuple(rng.choice(GENUS1) for _ in range(genus))
    knot = _sum_knot(names)
    action = _dense_conjugate(rng, knot.monodromy.action)
    dense = FiberedKnot(Ambient.s3(), genus, SurfaceMonodromy(genus, action))
    conjugated = _nielsen_conjugate(rng, knot.monodromy.pi1_action, 8 * genus * genus)
    return Op("alexander", (genus, names, dense,
                            hnn_presentation(conjugated, surface_names(genus))), f"g{genus}")


def alexander_run(args):
    _, _, knot, presentation = args
    return (tuple(alexander_poly(knot).dense_coeffs()),
            tuple(alexander_from_presentation(presentation).dense_coeffs()))


def alexander_check(args, output):
    expected = tuple(ref.alexander_of_sum(args[1]))
    return [f"{route} Alexander polynomial {got} != {expected}"
            for route, got in zip(("char_poly", "Fox"), output) if got != expected]


# --------------------------------------------------------------------------
# twists: Stallings and disk twists, monodromy powers, torus-surgery plans
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _square_knot():
    return catalog_knot("square_knot")


@lru_cache(maxsize=None)
def _trefoil_disk():
    disk = half_spin(catalog_knot("trefoil_R"))
    return disk, exterior_presentation(disk).text()


def stallings_run(args):
    _, curve, m = args
    return _dumped(stallings_twist(_square_knot(), curve, m))


def stallings_check(args, text):
    name, curve, m = args
    knot = stallings_twist(_square_knot(), curve, m)
    problems = _round_trip(text, knot)
    if [list(row) for row in knot.monodromy.action.entries] != ref.stallings_action(name, m):
        problems.append("homological monodromy differs from A_square * T_c^m")
    return problems


def disk_run(args):
    _, curve, m = args
    return _dumped(disk_twist(_trefoil_disk()[0], curve, m))


def disk_check(args, text):
    _, curve, m = args
    disk, presentation = _trefoil_disk()
    twisted = disk_twist(disk, curve, m)
    problems = _round_trip(text, twisted)
    expected = stallings_twist(boundary_knot(disk), curve, m).monodromy
    if boundary_knot(twisted).monodromy != expected:
        problems.append("disk twist does not commute with the Stallings twist on the boundary")
    if exterior_presentation(twisted).text() != presentation:
        problems.append("disk twist changed the exterior presentation")
    return problems


@lru_cache(maxsize=None)
def _figure8_map():
    return catalog_knot("figure8").monodromy.pi1_action


def power_run(args):
    (n,) = args
    power = _figure8_map().power(n)
    diagonal = h1(hnn_presentation(power, surface_names(1)))
    return _dumped(SurfaceMonodromy(1, abelianize(power), power)), tuple(diagonal)


def power_check(args, output):
    (n,) = args
    text, diagonal = output
    power = _figure8_map().power(n)
    problems = _round_trip(text, SurfaceMonodromy(1, abelianize(power), power))
    if prod(d for d in diagonal if d > 1) != ref.cyclic_cover_torsion(n) or diagonal.count(0) != 1:
        problems.append(f"H1 of the {n}-fold cover is {list(diagonal)}, "
                        f"expected torsion of order {ref.cyclic_cover_torsion(n)} plus Z")
    return problems


def plan_input(rng, target_genus: int) -> Op:
    source = rng.choice(GENUS1)
    target = [rng.choice(GENUS1) for _ in range(target_genus)]
    if target == [source]:
        target = [next(k for k in GENUS1 if k != source)]
    return Op("plan", (source, tuple(target)))


@lru_cache(maxsize=None)
def _plan_inputs(source, target):
    src = catalog_knot(source)
    return src, _sum_knot(target), spin(src)


def plan_run(args):
    src, tgt, spun = _plan_inputs(*args)
    return _dumped(execute_plan(spun, torus_surgery_plan(src, tgt)))


def plan_check(args, text):
    src, tgt, spun = _plan_inputs(*args)
    replayed = execute_plan(spun, torus_surgery_plan(src, tgt))
    problems = _round_trip(text, replayed)
    target = spin(tgt)
    if (replayed.ambient, replayed.fiber_rank, replayed.monodromy_pi1,
            replayed.gluck_parity) != (target.ambient, target.fiber_rank,
                                       target.monodromy_pi1, target.gluck_parity):
        problems.append("execute_plan does not reproduce spin(target)")
    return problems


# --------------------------------------------------------------------------
# scripts: surgery scripts and object reports through the CLI
# --------------------------------------------------------------------------

def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_run(args):
    return _cli(args[0])


class Draws:
    """Seeded draws dealt from shuffled decks, so that one round uses every
    summand, curve and stratum of twist counts about equally often and its
    cost varies little from seed to seed."""

    def __init__(self, rng):
        self.rng = rng
        self._decks: dict[str, list] = {}

    def deal(self, key, values, strata=None):
        """Next value of deck `key`.  With `strata`, a full deck holds one
        random value from each of that many contiguous runs of `values`."""
        deck = self._decks.setdefault(key, [])
        if not deck:
            if strata is None:
                deck.extend(values)
            else:
                bounds = [round(i * len(values) / strata) for i in range(strata + 1)]
                deck.extend(self.rng.choice(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
            self.rng.shuffle(deck)
        return deck.pop()


# Each report expectation is (kind, homology action of the fiber map as
# computed by `reference`, group id, plan entry count).  Reports with the
# same group id describe isomorphic groups and must agree on every count.

def _knot_block(d, tag, names):
    genus = len(names)
    lines = [f"{tag}K0 = load {names[0]}"]
    for i, name in enumerate(names[1:], start=1):
        lines += [f"{tag}L{i} = load {name}", f"{tag}K{i} = connectsum {tag}K{i - 1} {tag}L{i}"]
    knot = f"{tag}K{genus - 1}"
    lines += [f"report {knot}", f"{tag}S = spin {knot}", f"report {tag}S",
              f"{tag}G = glucktwist {tag}S", f"report {tag}G"]
    action = ref.sum_action(names)
    kinds = ("fibered_knot", "fibered_two_knot", "fibered_two_knot")
    return lines, [(kind, action, tag, None) for kind in kinds]


def _disk_block(d, tag, m):
    name, curve = d.deal("summand", GENUS1), d.deal("curve", CURVES)
    lines = [f"{tag}T = load {name}", f"report {tag}T", f"{tag}D = halfspin {tag}T",
             f"{tag}E = load {curve}", f"{tag}D1 = disktwist {tag}D {tag}E {m}",
             f"report {tag}D1", f"{tag}W = double {tag}D1 {d.rng.randrange(4)}",
             f"report {tag}W"]
    action = ref.CATALOG_ACTIONS[name]
    kinds = ("fibered_knot", "fibered_disk", "fibered_two_knot")
    return lines, [(kind, action, tag, None) for kind in kinds]


def _stallings_block(d, tag, m):
    curve = d.deal("curve", CURVES)
    lines = [f"{tag}Q = load square_knot", f"{tag}C = load {curve}",
             f"{tag}K = stallingstwist {tag}Q {tag}C {m}", f"report {tag}K",
             f"{tag}S = spin {tag}K", f"report {tag}S"]
    action = ref.stallings_action(curve, m)
    return lines, [(kind, action, tag, None) for kind in ("fibered_knot", "fibered_two_knot")]


def _plan_block(d, tag, target_genus):
    source = d.deal("summand", GENUS1)
    target = [d.deal("summand", GENUS1) for _ in range(target_genus)]
    if target == [source]:
        target = [next(k for k in GENUS1 if k != source)]
    lines = [f"{tag}A = load {source}", f"{tag}B0 = load {target[0]}"]
    for i, name in enumerate(target[1:], start=1):
        lines += [f"{tag}C{i} = load {name}", f"{tag}B{i} = connectsum {tag}B{i - 1} {tag}C{i}"]
    lines += [f"{tag}P = plan {tag}A {tag}B{target_genus - 1}", f"report {tag}P"]
    entries = 2 * (target_genus - 1) + 2 + 2 * target_genus
    return lines, [("surgery_plan", None, tag, entries)]


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def script_input(d, workdir, index, *blocks) -> Op:
    lines, expected = [], []
    for j, block in enumerate(blocks):
        block_lines, block_expected = block(d, f"s{index}b{j}")
        lines += block_lines
        expected += block_expected
    path = _write(workdir, f"script{index}.fib", "\n".join(lines) + "\n")
    return Op("script", (["run", path, "--json"], tuple(expected)))


def report_input(d, workdir, index, family, m, genus) -> Op:
    names = [d.deal("summand", GENUS1) for _ in range(genus)]
    curve = d.deal("curve", CURVES)
    if family == "knot":
        obj, kind, action = _sum_knot(names), "fibered_knot", ref.sum_action(names)
    elif family == "spin":
        obj, kind, action = spin(_sum_knot(names)), "fibered_two_knot", ref.sum_action(names)
    elif family == "disk":
        obj = disk_twist(half_spin(catalog_knot(names[0])), curated_payload(curve), m)
        kind, action = "fibered_disk", ref.CATALOG_ACTIONS[names[0]]
    else:
        obj = stallings_twist(_square_knot(), curated_payload(curve), m)
        kind, action = "fibered_knot", ref.stallings_action(curve, m)
    path = _write(workdir, f"object{index}.json", serialize.dumps(obj))
    return Op("report", (["report", path, "--json"], ((kind, action, f"r{index}", None),)))


@lru_cache(maxsize=None)
def _expected_report(action):
    """What `reference` predicts for a report: Alexander polynomial, Z_k
    counts and the H1 torsion order."""
    matrix = [list(row) for row in action]
    counts = {g: ref.hom_count_cyclic(matrix, int(g[1:])) for g in HOM_GROUPS}
    return ref.normalize(ref.char_poly(matrix)), counts, ref.h1_torsion_order(matrix)


def cli_check(args, output):
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    reports = json.loads(text)
    if not isinstance(reports, list):
        reports = [reports]
    expected = args[1]
    if len(reports) != len(expected):
        return [f"{len(reports)} reports, expected {len(expected)}"]
    problems, by_group = [], {}
    for i, (report, (kind, action, group_id, entries)) in enumerate(zip(reports, expected)):
        where = f"report {i} ({kind})"
        if report["kind"] != kind:
            problems.append(f"{where}: kind {report['kind']}")
            continue
        if kind == "surgery_plan":
            if len(report["plan"]) != entries:
                problems.append(f"{where}: {len(report['plan'])} plan entries, "
                                f"expected {entries}")
            continue
        action = tuple(map(tuple, action))
        alex, counts, torsion = _expected_report(action)
        if report["alexander"] != alex:
            problems.append(f"{where}: Alexander {report['alexander']} != {alex}")
        for group, count in counts.items():
            if report["hom_counts"][group] != count:
                problems.append(f"{where}: {report['hom_counts'][group]} homs to {group}, "
                                f"expected {count}")
        diagonal = report["h1_diagonal"]
        if torsion and (prod(d for d in diagonal if d > 1) != torsion
                        or diagonal.count(0) != 1):
            problems.append(f"{where}: H1 {diagonal}, expected torsion of order {torsion}")
        seen = by_group.setdefault(group_id, (report["hom_counts"], diagonal))
        if seen != (report["hom_counts"], diagonal):
            problems.append(f"{where}: counts differ from the source knot's group")
    return problems


KINDS = {
    "alexander": (alexander_run, alexander_check),
    "stallings": (stallings_run, stallings_check),
    "disk": (disk_run, disk_check),
    "power": (power_run, power_check),
    "plan": (plan_run, plan_check),
    "script": (cli_run, cli_check),
    "report": (cli_run, cli_check),
}


# --------------------------------------------------------------------------
# workload rounds
# --------------------------------------------------------------------------

def _alexander_round(rng, workdir, sweeps=4):
    return [alexander_input(rng, g) for _ in range(sweeps) for g in ALEXANDER_GENERA]


def _twists_round(rng, workdir):
    ops = []
    for m in M_VALUES:
        for kind in ("stallings", "disk"):
            for base in ("square_knot_stallings_c1", "square_knot_stallings_c2"):
                name = base + rng.choice(("", "_neg"))
                ops.append(Op(kind, (name, curated_payload(name), m)))
    ops += [Op("power", (n,), f"n{n}") for n in POWERS]
    ops += [plan_input(rng, g) for g in (1, 2, 3)]
    rng.shuffle(ops)
    return ops


def _scripts_round(rng, workdir):
    """Scripts of two kinds that cost about the same at the seed commit (a
    connected sum with its spin and Gluck twist plus a half-spin disk twist
    and double; a Stallings twist with its spin plus a torus-surgery plan),
    and 16 object reports.  The connected sums are every ordered pair of
    genus-1 knots and every pair followed by a dealt third knot, because hom
    counting costs half again as much on some summand orders.  Reports stay
    under a third of the round so that the median falls among the scripts,
    not between the two groups."""
    d = Draws(rng)
    pairs = [(a, b) for a in GENUS1 for b in GENUS1]
    sums = pairs + [pair + (d.deal("summand", GENUS1),) for pair in pairs]
    rng.shuffle(sums)
    ops = []
    for i, names in enumerate(sums):
        ops.append(script_input(d, workdir, len(ops), partial(_knot_block, names=names),
                                partial(_disk_block, m=d.deal("disk", M_VALUES, len(sums)))))
        ops.append(script_input(d, workdir, len(ops),
                                partial(_stallings_block,
                                        m=d.deal("stallings", M_VALUES, len(sums))),
                                partial(_plan_block, target_genus=1 + i % 3)))
    for i in range(4):
        for family in ("knot", "spin", "disk", "stallings"):
            ops.append(report_input(d, workdir, len(ops), family,
                                    d.deal(family, M_VALUES, 4), 2 + i % 2))
    rng.shuffle(ops)
    return ops


ROUNDS = {"scripts": _scripts_round, "alexander": _alexander_round, "twists": _twists_round}


def sweep_round(rng, workdir):
    """One traced pass that touches every module and every g/n sweep step,
    whichever workload is being traced: one genus sweep, the figure-8
    power sweep, and one operation of every other kind."""
    ops = [alexander_input(rng, genus) for genus in range(1, 7)]
    twists = _twists_round(rng, workdir)
    ops += sorted((op for op in twists if op.kind == "power"), key=lambda op: op.args)
    for kind in ("stallings", "disk", "plan"):
        ops.append(next(op for op in twists if op.kind == kind))
    d = Draws(rng)
    ops.append(script_input(d, workdir, "_sweep", partial(_knot_block, names=("trefoil_R", "figure8"))))
    ops.append(report_input(d, workdir, "_sweep", "disk", d.deal("m", M_VALUES), 1))
    return ops
