"""Command-line interface: `fibcalc run`, `fibcalc catalog`, `fibcalc report`."""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import serialize
from .errors import FibcalcError, ScriptError
from .invariants import group_catalog_names
from .mcg import CurveSpec, catalog_names, curated_payload
from .script import build_report, execute, reports_to_json


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical machine-readable report form")


def _emit(reports, as_json: bool) -> None:
    if as_json:
        print(reports_to_json(reports))
    else:
        for report in reports:
            print(report.text())
            print()


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_run(args) -> int:
    try:
        reports = execute(_read(args.script))
    except (OSError, UnicodeDecodeError, FibcalcError) as exc:
        if isinstance(exc, ScriptError):  # with the reports made before it failed
            _emit(getattr(exc, "reports", []), args.json)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(reports, args.json)
    return 0


def _cmd_catalog(args) -> int:
    print("monodromies and knots:")
    for name in catalog_names():
        entry = curated_payload(name)
        if isinstance(entry, CurveSpec):
            continue
        print(f"  {name} (genus {entry.genus})")
    print("curves:")
    for name in catalog_names():
        entry = curated_payload(name)
        if isinstance(entry, CurveSpec):
            print(f"  {name} (genus {entry.genus}, class {list(entry.homology_class)})")
    print("finite groups:")
    print("  " + " ".join(group_catalog_names()))
    return 0


def _cmd_report(args) -> int:
    try:
        obj = serialize.loads(_read(args.object))
        report = build_report(obj)
    except (OSError, UnicodeDecodeError, FibcalcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit([report], args.json)
    return 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    reads it without changing it."""
    parser = argparse.ArgumentParser(
        prog="fibcalc",
        description="monodromy calculator for fibered knots, ribbon disks and 2-knots")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a surgery script")
    run.add_argument("script", help="script path, or - for stdin")
    _add_common(run)
    run.set_defaults(func=_cmd_run)

    cat = sub.add_parser("catalog", help="list catalog entries")
    cat.set_defaults(func=_cmd_catalog)

    rep = sub.add_parser("report", help="report on a serialized object")
    rep.add_argument("object", help="path to an object JSON file")
    _add_common(rep)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        print("error: output closed before it was all written", file=sys.stderr)
        sys.stdout = None  # the exit would flush what is left into the closed pipe
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
