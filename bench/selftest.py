"""Self-test of the benchmark's checks: a corrupted reference, or an output
that differs from its first run, must be counted as a failed operation, and
the traced run must give the untraced outputs.

    python3 bench/selftest.py

Exits 0 when every corruption is caught and the uncorrupted runs pass.
"""

from __future__ import annotations

import random
import sys
import tempfile
from functools import partial
from unittest import mock

from run import BENCH, Runner, import_fibcalc


def failures(w, ops, corrupt_expected=False, traced=False) -> int:
    from tracing import Tracer, instrument

    runner = Runner(w, ops)
    runner.warm_up()
    if corrupt_expected:
        runner.expected[0] = "corrupted"
    if traced:
        tracer = Tracer()
        with instrument(tracer, w):
            _, _, failed, _ = runner.loop(0, tracer)
        return failed
    _, _, failed, _ = runner.loop(0)
    return failed


def main() -> int:
    import_fibcalc()
    import reference as ref
    import workloads as w

    rng = random.Random("selftest")
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        alexander = [w.alexander_input(rng, g) for g in (1, 2, 3)
                     for _ in range(3)]
        powers = [w.Op("power", (n,)) for n in (1, 2, 3, 4)]
        draws = w.Draws(rng)
        scripts = [w.script_input(draws, workdir, i, partial(w._stallings_block, m=m))
                   for i, m in enumerate((-1, 1, 16, 40))]
        cases = [
            ("clean alexander", alexander, None, False),
            ("clean powers", powers, None, False),
            ("clean scripts", scripts, None, False),
            ("clean scripts, traced", scripts, "traced", False),
            ("figure-8 Alexander polynomial", alexander,
             mock.patch.dict(ref.KNOWN_ALEXANDER, {"figure8": [1, -2, 1]}), True),
            ("Lucas numbers", powers, mock.patch.object(ref, "lucas", lambda n: n + 3), True),
            ("Z_k hom counts", scripts,
             mock.patch.object(w, "_expected_report", lambda action: ref_counts(ref, action)),
             True),
            ("repeat differs from first run", powers, "expected", True),
        ]
        ok = True
        for name, ops, patch, should_fail in cases:
            if patch == "expected":
                failed = failures(w, ops, corrupt_expected=True)
            elif patch == "traced":
                failed = failures(w, ops, traced=True)
            elif patch is None:
                failed = failures(w, ops)
            else:
                with patch:
                    failed = failures(w, ops)
            caught = failed > 0
            print(f"{name}: {failed} of {len(ops)} operations failed "
                  f"({'ok' if caught == should_fail else 'WRONG'})")
            ok &= caught == should_fail
    return 0 if ok else 1


def ref_counts(ref, action):
    """The true reference with every Z_k count off by one."""
    matrix = [list(row) for row in action]
    counts = {g: ref.hom_count_cyclic(matrix, int(g[1:])) + 1 for g in ("Z2", "Z3", "Z5")}
    return ref.normalize(ref.char_poly(matrix)), counts, ref.h1_torsion_order(matrix)


if __name__ == "__main__":
    sys.exit(main())
