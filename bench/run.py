"""fibcalc benchmark: one client running seeded operations in a closed loop.

    python3 bench/run.py --workload scripts|alexander|twists --seed N \
        --seconds S --trace 0|1

Run from the repository root; fibcalc is imported from ./src.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Percentile reported as latency_tail_ms.  It is the highest of 50/90/99 that
# every workload's sample count supports with at least ten samples beyond it,
# fixed so that two commits are compared at the same percentile.
TAIL_PERCENTILE = 90
SETUP_RUNS = 15

# Other tenants of a shared machine change its speed by 20-30% over seconds
# to minutes.  Every time metric is therefore scaled to a reference speed:
# the run times a fixed calibration kernel once per CALIBRATE_EVERY_S of
# operation time (several times after a long operation), and a latency is
# divided by the mean kernel time within CALIBRATION_WINDOW_S of its span,
# times REFERENCE_KERNEL_S.  Raw figures are printed above the result line.
REFERENCE_KERNEL_S = 0.003
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.5
_KERNEL_MATRIX = ref.sum_action(("trefoil_R", "figure8", "trefoil_L"))

# Time to import fibcalc and fill its lazy caches (every catalog entry and
# every finite-group table), measured inside a fresh interpreter.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fibcalc, fibcalc.cli
from fibcalc.invariants import finite_group, group_catalog_names
from fibcalc.mcg import catalog_names, curated_payload
for name in catalog_names():
    curated_payload(name)
for name in group_catalog_names():
    finite_group(name)
print(time.perf_counter() - start)
"""


def import_fibcalc():
    sys.path.insert(0, str(SRC))
    import fibcalc
    if not Path(fibcalc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fibcalc was imported from {fibcalc.__file__}, not {SRC}")


def kernel_seconds() -> float:
    """Time of fixed pure-Python work that does not use fibcalc: integer
    matrix products and a small exhaustive search."""
    start = perf_counter()
    for _ in range(3):
        ref.char_poly(_KERNEL_MATRIX)
        ref.hom_count_cyclic([row[:4] for row in _KERNEL_MATRIX[:4]], 3)
    return perf_counter() - start


def scale(starts, seconds, kernel_at, kernel_s):
    """Each duration scaled to the reference speed by the mean kernel time
    from CALIBRATION_WINDOW_S before it starts to CALIBRATION_WINDOW_S after
    it ends (at least the four nearest kernel runs).  A long operation
    averages the machine's speed over its whole span, so it is compared
    with the mean kernel time over that span, not one sample."""
    out = []
    for start, value in zip(starts, seconds):
        lo = bisect.bisect_left(kernel_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(kernel_at, start + value + CALIBRATION_WINDOW_S)
        if hi - lo < 4:
            middle = bisect.bisect_left(kernel_at, start)
            lo, hi = max(0, middle - 2), min(len(kernel_at), middle + 2)
        out.append(value * REFERENCE_KERNEL_S / statistics.fmean(kernel_s[lo:hi]))
    return out


def measure_setup() -> tuple[list[float], list[float]]:
    """Cold starts in fresh interpreters, raw and scaled to the reference
    speed by kernel runs around each; the first start only warms the
    bytecode cache."""
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        before = kernel_seconds()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        speed = statistics.median([before, kernel_seconds(), kernel_seconds()])
        if i:
            raw.append(float(done.stdout))
            scaled.append(raw[-1] * REFERENCE_KERNEL_S / speed)
    return raw, scaled


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    return TAIL_PERCENTILE if n * (100 - TAIL_PERCENTILE) / 100 >= 10 else 50


class Runner:
    """Runs one workload's operations and keeps the first output of each as
    the reference its repeats must equal byte for byte."""

    def __init__(self, workloads, ops):
        self.w = workloads
        self.ops = ops
        self.expected = [None] * len(ops)
        self.bad: set[int] = set()
        self.problems: list[str] = []

    def _note(self, i, message):
        if len(self.problems) < 20:
            self.problems.append(f"op {i} ({self.ops[i].kind}): {message}")

    def warm_up(self):
        """One untimed pass: fills caches and checks every output against
        the reference."""
        for i, op in enumerate(self.ops):
            run, check = self.w.KINDS[op.kind]
            try:
                self.expected[i] = run(op.args)
                problems = check(op.args, self.expected[i])
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            for message in problems:
                self._note(i, message)
            if problems:
                self.bad.add(i)

    def attempt(self, i, call) -> tuple[float, bool]:
        start = perf_counter()
        try:
            output = call()
        except Exception:
            elapsed = perf_counter() - start
            self._note(i, traceback.format_exc(limit=3))
            return elapsed, False
        elapsed = perf_counter() - start
        if output != self.expected[i]:
            self._note(i, "output differs from the first run of the same input")
            return elapsed, False
        return elapsed, i not in self.bad

    def loop(self, seconds, tracer=None):
        """Closed loop over whole rounds until `seconds` have passed (one
        round when `seconds` is 0), each operation inside a root span of
        `tracer` if given.  Returns raw and scaled latencies, the failure
        count and the wall time."""
        starts, latencies, kernel_at, kernel_s, failed = [], [], [], [], 0
        since_kernel = CALIBRATE_EVERY_S
        gc.collect()
        begin = perf_counter()
        while True:
            for i, op in enumerate(self.ops):
                while since_kernel >= CALIBRATE_EVERY_S:
                    kernel_at.append(perf_counter())
                    kernel_s.append(kernel_seconds())
                    since_kernel -= CALIBRATE_EVERY_S
                run, _ = self.w.KINDS[op.kind]
                if tracer is None:
                    call = partial(run, op.args)
                else:
                    call = partial(traced_call, tracer, run, op)
                starts.append(perf_counter())
                elapsed, ok = self.attempt(i, call)
                latencies.append(elapsed)
                since_kernel += elapsed
                failed += not ok
            wall = perf_counter() - begin
            if wall >= seconds:
                kernel_at.append(perf_counter())
                kernel_s.append(kernel_seconds())
                return latencies, scale(starts, latencies, kernel_at, kernel_s), failed, wall


def traced_call(tracer, run, op):
    with tracer.op(op.kind, op.tag):
        return run(op.args)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, w, ops, gen_s):
    setup_raw, setup = measure_setup()
    runner = Runner(w, ops)
    runner.warm_up()
    raw, scaled, failed, wall = runner.loop(args.seconds)
    n = len(scaled)
    p_tail = tail_percentile(n)
    ms = [x * 1000 for x in scaled]
    metrics = {
        "ops_per_s": metric(n / sum(scaled), "1/s"),
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_tail_ms": metric(percentile(ms, p_tail), "ms"),
        "ok_ratio": metric((n - failed) / n, "ratio"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_ms = [x * 1000 for x in raw]
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {wall:.2f} s "
          f"({n // len(ops)} rounds of {len(ops)}); inputs generated in {gen_s:.2f} s")
    print(f"latency_tail_ms is p{p_tail} of {n} samples "
          f"({n - int(n * p_tail / 100)} beyond it)")
    print(f"raw (unscaled): ops_per_s {n / sum(raw):.4f}, "
          f"latency_p50_ms {statistics.median(raw_ms):.4f}, "
          f"latency_tail_ms {percentile(raw_ms, p_tail):.4f}, "
          f"setup_s {statistics.median(setup_raw):.4f} (median of {len(setup_raw)} cold starts)")
    return runner, n, failed, metrics


def per_layer(args, w, ops, gen_s):
    from tracing import MODULES, Tracer, instrument, median_or_zero

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as sweep_dir:
        sweep = Runner(w, w.sweep_round(random.Random(f"sweep-{args.seed}"), sweep_dir))
        sweep.warm_up()
        runner = Runner(w, ops)
        runner.warm_up()
        _, plain, plain_failed, _ = runner.loop(args.seconds / 2)
        # The traced pass is a fixed amount of work, one round of the workload
        # and the sweep round, so counts and totals compare across commits.
        tracer = Tracer()
        with instrument(tracer, w):
            _, traced, traced_failed, _ = runner.loop(0, tracer)
            _, sweep_lat, sweep_failed, _ = sweep.loop(0, tracer)
    runner.problems += sweep.problems
    n = len(plain) + len(traced) + len(sweep_lat)
    failed = plain_failed + traced_failed + sweep_failed

    totals, unattributed = tracer.module_totals()
    metrics = {}
    for module in MODULES:
        metrics[f"{module}.busy_s"] = metric(totals["busy_s"][module], "s")
        metrics[f"{module}.calls"] = metric(totals["calls"][module], "count")
        metrics[f"{module}.failed"] = metric(totals["failed"][module], "count")
    sweeps = {}
    for name, span, steps in (
            ("matrices.char_poly_s", "matrices.char_poly", [f"g{g}" for g in range(1, 7)]),
            ("invariants.alexander_fox_s", "invariants.alexander_from_presentation",
             [f"g{g}" for g in range(1, 7)]),
            ("words.power_s", "words.FreeGroupMap.power", [f"n{n}" for n in w.POWERS]),
            ("invariants.count_homs_s", "invariants.count_homs", ["Z2", "Z3", "Z5", "S3", "D4"])):
        by_tag = tracer.durations(span)
        sweeps[name] = [(step, median_or_zero(by_tag.get(step, []))) for step in steps]
        for step, value in sweeps[name]:
            metrics[f"{name}.{step}"] = metric(value, "s")
    counters = tracer.counters
    nominal = counters["invariants.count_homs.nominal"]
    homs = counters["invariants.count_homs.homs"]
    metrics.update({
        "words.letters_out": metric(counters["words.letters_out"], "count"),
        "invariants.count_homs.nominal": metric(nominal, "count"),
        "invariants.count_homs.homs": metric(homs, "count"),
        "invariants.count_homs.hit_ratio": metric(homs / nominal if nominal else 0.0, "ratio"),
        "invariants.h1_s": metric(median_or_zero(
            [x for v in tracer.durations("invariants.h1").values() for x in v]), "s"),
        "serialize.dumps_s": metric(median_or_zero(
            tracer.durations("serialize.dumps").get(None, [])), "s"),
        "serialize.loads_s": metric(median_or_zero(
            tracer.durations("serialize.loads").get(None, [])), "s"),
        "serialize.bytes": metric(counters["serialize.bytes"], "bytes"),
        "trace.untraced_ops_per_s": metric(len(plain) / sum(plain), "1/s"),
        "trace.traced_ops_per_s": metric(len(traced) / sum(traced), "1/s"),
        "trace.unattributed_s": metric(unattributed, "s"),
    })

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    traced_total = sum(end - start for name, start, end, parent, *_ in tracer.spans
                       if parent is None)
    print(f"workload {args.workload}, seed {args.seed}: inputs generated in {gen_s:.2f} s; "
          f"{len(plain)} untraced ops, {len(traced)} traced ops, "
          f"{len(sweep_lat)} sweep ops; {len(tracer.spans)} spans in {spans_path.name}")
    print(f"tracing overhead: {len(plain) / sum(plain):.2f} ops/s untraced, "
          f"{len(traced) / sum(traced):.2f} ops/s traced (scaled); "
          f"{unattributed:.3f} s of {traced_total:.3f} s traced op time "
          f"outside any module span")
    print("sweep: median seconds per call, and growth factor over the previous step")
    for name, steps in sweeps.items():
        cells, previous = [], None
        for step, value in steps:
            growth = f" x{value / previous:.1f}" if previous and step[0] in "gn" else ""
            cells.append(f"{step}={value:.5f}{growth}")
            previous = value
        print(f"  {name}: " + ", ".join(cells))
    return runner, n, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scripts", "alexander", "twists"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_fibcalc()
    except ImportError as exc:
        print(f"error: cannot import fibcalc from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as w

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        start = perf_counter()
        ops = w.ROUNDS[args.workload](random.Random(f"{args.workload}-{args.seed}"), workdir)
        gen_s = perf_counter() - start
        measure = per_layer if args.trace else end_to_end
        runner, attempted, failed, metrics = measure(args, w, ops, gen_s)
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not runner.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
