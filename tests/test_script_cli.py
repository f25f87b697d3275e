import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fibcalc
from fibcalc import cli, invariants, script, serialize, words
from fibcalc.cli import main
from fibcalc.errors import ScriptError
from fibcalc.fibered import catalog_knot, connected_sum, knot_group
from fibcalc.mcg import CurveSpec, catalog_names, curated_payload
from fibcalc.presentation import hnn_presentation
from fibcalc.ribbon_disk import disk_twist, half_spin
from fibcalc.script import (Statement, SurgeryScript, build_report, execute, parse_script,
                            reports_to_json)
from fibcalc.two_knot import spin
from fibcalc.words import handlebody_names
from oracles import presentation_invariants
from test_invariants import counted_smith
from test_split_counts import _sum_of


def test_parse_simple_script():
    script = parse_script("K = load trefoil_R\nS = spin K\nreport S\n")
    assert len(script.statements) == 3
    assert script.statements[0].target == "K"
    assert script.statements[0].verb == "load"
    assert script.statements[2].args == ("S",)


def test_parse_comments_and_blanks():
    script = parse_script("# leading comment\n\nK = load unknot  # trailing\n")
    assert len(script.statements) == 1


def test_parse_errors_carry_location():
    with pytest.raises(ScriptError) as err:
        parse_script("spin\n")
    assert err.value.line == 1
    with pytest.raises(ScriptError) as err:
        parse_script("K = load trefoil_R\nfrobnicate K\n")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(ScriptError) as err:
        parse_script("D = load unknot\ndisktwist D D x\n")
    assert err.value.line == 2
    with pytest.raises(ScriptError):
        parse_script("1bad = load unknot\n")


@pytest.mark.parametrize("literal", ["\uff13", "\u0663", "1\u0663"],
                         ids=["fullwidth", "arabic-indic", "mixed"])
def test_integer_literals_are_ascii(literal):
    """A non-ASCII digit (fullwidth ３, Arabic-Indic ٣) is not an integer
    literal, though `int()` would read it as 3 while the statement's text
    kept the original digit."""
    with pytest.raises(ScriptError) as err:
        parse_script(f"K = load trefoil_R\nD = halfspin K\nW = double D {literal}\n")
    assert (err.value.line, err.value.column) == (3, 14)
    assert str(err.value) == "argument 2 of 'double' must be an integer (line 3, col 14)"


def test_parse_print_identity():
    text = "K = load trefoil_R\nS = spin K\nreport S\n"
    script = parse_script(text)
    assert script.text() == text
    assert parse_script(script.text()) == script


def test_execute_pipeline():
    reports = execute("K = load trefoil_R\nS = spin K\nreport S\n")
    assert len(reports) == 1
    report = reports[0]
    assert report.kind == "fibered_two_knot"
    assert report.alexander == (1, -1, 1)
    assert report.h1_diagonal == (0,)
    assert report.gluck_parity == 0


def test_execute_empty_script():
    assert execute("") == []


def test_execute_unbound_name():
    with pytest.raises(ScriptError) as err:
        execute("report K\n")
    assert err.value.statement == 0


def test_execute_propagates_precondition_with_statement_index():
    text = "D = load unknot\nS = spin D\nE = load g2_a1\n" \
           "D2 = halfspin D\nbad = disktwist D2 E 1\n"
    with pytest.raises(ScriptError) as err:
        execute(text)
    assert err.value.statement == 4
    assert "disk" in str(err.value)


def test_execute_type_errors():
    with pytest.raises(ScriptError):
        execute("C = load g1_a1\nS = spin C\n")


def test_full_verb_coverage():
    text = """
K = load trefoil_R
M = load figure8
C = load square_knot_stallings_c1
U = connectsum K M
D = halfspin K
D1 = disktwist D C 1
S = double D1 2
G = glucktwist S
SP = spin K
Q = load square_knot
QS = stallingstwist Q C 1
T = torustwist SP C # wrong rank would fail; this uses the square knot spin below
P = plan K M
report G
report P
"""
    # torustwist with a genus-2 curve on a rank-2 spin fails: fix by spinning Q
    text = text.replace("T = torustwist SP C", "SQ = spin Q\nT = torustwist SQ C")
    reports = execute(text)
    assert [r.kind for r in reports] == ["fibered_two_knot", "surgery_plan"]
    assert reports[0].gluck_parity == 1
    assert reports[1].plan is not None


def test_reports_deterministic_json():
    text = "K = load square_knot\nreport K\nS = spin K\nreport S\n"
    one = reports_to_json(execute(text))
    two = reports_to_json(execute(text))
    assert one == two
    parsed = json.loads(one)
    assert parsed[0]["kind"] == "fibered_knot"
    # meridian-matched pairs of trefoil homs: 1*1 + 3*(3*3) + 2*(1*1)
    assert parsed[0]["hom_counts"]["S3"] == 30


def test_build_report_on_curve():
    from fibcalc.mcg import curated_payload
    report = build_report(curated_payload("square_knot_stallings_c1"))
    assert report.kind == "curve_spec"
    assert any("bounds_disk" in note for note in report.notes)


def test_cli_run_and_json(tmp_path, capsys):
    path = tmp_path / "script.fib"
    path.write_text("K = load trefoil_R\nreport K\n")
    assert main(["run", str(path)]) == 0
    text_out = capsys.readouterr().out
    assert "fibered_knot" in text_out and "trefoil_R" in text_out
    assert main(["run", str(path), "--json"]) == 0
    json_out = capsys.readouterr().out
    parsed = json.loads(json_out)
    assert parsed[0]["alexander"] == [1, -1, 1]


def test_cli_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.fib"
    path.write_text("report missing\n")
    assert main(["run", str(path)]) == 1
    assert "not bound" in capsys.readouterr().err


def test_cli_over_long_integer_literal_is_a_script_error(tmp_path, capsys):
    """A literal past the interpreter's int-string limit (4300 digits) ends
    in a ScriptError naming its statement, not a raw ValueError."""
    path = tmp_path / "long.fib"
    path.write_text("K = load square_knot\nC = load square_knot_stallings_c1\n"
                    f"T = stallingstwist K C {'9' * 5000}\nreport T\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: stallingstwist: integer literal of 5000 characters is too long "
                   "(statement 2)\n")
    assert "Traceback" not in err


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "trefoil_R" in out and "square_knot_stallings_c1" in out and "S4" in out


def test_cli_report_roundtrip(tmp_path, capsys):
    from fibcalc import serialize
    from fibcalc.fibered import catalog_knot
    path = tmp_path / "knot.json"
    path.write_text(serialize.dumps(catalog_knot("figure8")))
    assert main(["report", str(path), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed[0]["alexander"] == [1, -3, 1]


@pytest.mark.parametrize("command", ["run", "report"])
def test_cli_hom_budget_flag_is_a_usage_error(tmp_path, capsys, command):
    """No report count searches, so there is no search budget to set."""
    path = tmp_path / "script.fib"
    path.write_text("K = load square_knot\nreport K\n")
    with pytest.raises(SystemExit) as exit_:
        main([command, str(path), "--hom-budget", "10"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --hom-budget" in capsys.readouterr().err


def test_report_warns_on_non_unit_alexander_at_one():
    from fibcalc.fibered import Ambient, FiberedKnot
    from fibcalc.mcg import SurfaceMonodromy
    bogus = FiberedKnot(Ambient.s3(), 1, SurfaceMonodromy.identity(1), "user_input")
    report = build_report(bogus)
    assert any("alexander(1)" in note for note in report.notes)
    clean = build_report(__import__("fibcalc.fibered", fromlist=["catalog_knot"])
                         .catalog_knot("trefoil_R"))
    assert clean.notes == ()


def test_cli_failing_statement_keeps_earlier_reports(tmp_path, capsys):
    path = tmp_path / "script.fib"
    path.write_text("K = load trefoil_R\nreport K\nreport Z\n")
    assert main(["run", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    parsed = json.loads(captured.out)
    assert [r["label"] for r in parsed] == ["trefoil_R"]
    assert "not bound" in captured.err and "statement 2" in captured.err


def test_execute_wrong_type_keeps_reports():
    with pytest.raises(ScriptError) as err:
        execute("K = load trefoil_R\nreport K\nC = load g1_a1\nS = spin C\n")
    assert err.value.statement == 3
    assert [r.label for r in err.value.reports] == ["trefoil_R"]


def test_execute_checks_hand_built_statements():
    from fibcalc.script import Statement, SurgeryScript
    for stmt in (Statement("frobnicate", ("K",)), Statement("spin", ()),
                 Statement("double", ("D", "x"))):
        with pytest.raises(ScriptError) as err:
            execute(SurgeryScript((Statement("load", ("unknot",), "D"), stmt)))
        assert err.value.statement == 1


@pytest.mark.parametrize("command", ["run", "report"])
def test_cli_rejects_non_utf8_file(tmp_path, capsys, command):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_report_rejects_malformed_object(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "object": {"kind": "filling_descriptor", '
                    '"base": "Y", "slope": [1]}}')
    assert main(["report", str(path)]) == 1
    assert "$.object.slope" in capsys.readouterr().err


def test_run_does_not_read_a_budget_environment_variable(tmp_path, capsys, monkeypatch):
    path = tmp_path / "script.fib"
    path.write_text("K = load trefoil_R\nreport K\n")
    assert main(["run", str(path)]) == 0
    clean = capsys.readouterr()
    monkeypatch.setenv("FIBCALC_HOM_BUDGET", "abc")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr() == clean


def test_no_module_reads_the_process_environment():
    # the CLI flags and the function arguments are the only settings
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(fibcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(path.name, node.lineno) for name in names if name in readers]
    assert found == []


def test_cli_has_no_workers_option(tmp_path):
    path = tmp_path / "script.fib"
    path.write_text("K = load unknot\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--workers", "2"])
    assert exc.value.code == 2


def test_load_raises_nothing_for_curves_or_knots():
    # every exception raised in a fibcalc frame, even one caught again
    raised = []

    def tracer(frame, event, arg):
        if event == "exception" and frame.f_globals.get("__name__", "").startswith("fibcalc"):
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return tracer

    source = "c = load square_knot_stallings_c1\nd = load g2_b1\nK = load square_knot\nreport c"
    sys.settrace(tracer)
    try:
        reports = execute(source)
    finally:
        sys.settrace(None)
    assert raised == []
    assert [r.label for r in reports] == ["square_knot_stallings_c1"]


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    path = tmp_path / "script.fib"
    path.write_text("K = load trefoil_R\nS = spin K\nreport S\n")
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert main(["run", str(path)]) == 0
        first = capsys.readouterr().out
        assert len(built) == 4  # the parser and its run, catalog and report subparsers
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == first
        assert len(built) == 4
    finally:
        cli._parser.cache_clear()


def test_cli_help_and_usage_errors_repeat(capsys):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("usage: fibcalc [-h] {run,catalog,report} ...")
    for argv in (["frobnicate"], ["run"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "usage: fibcalc" in capsys.readouterr().err


# Report bytes pinned by SHA-256: scripts of both shapes the `scripts`
# benchmark runs, and object reports on dumped files.  The digests were taken
# while free-group maps still held `FreeWord`s; how maps store their words
# must not move them.
GOLDEN_SCRIPTS = {
    "sum": """
K0 = load trefoil_R
L1 = load figure8
K1 = connectsum K0 L1
L2 = load trefoil_L
K2 = connectsum K1 L2
report K2
S = spin K2
report S
G = glucktwist S
report G
T = load figure8
report T
D = halfspin T
E = load square_knot_stallings_c2_neg
D1 = disktwist D E 17
report D1
W = double D1 3
report W
""",
    "stallings": """
Q = load square_knot
C = load square_knot_stallings_c1
K = stallingstwist Q C -1
report K
S = spin K
report S
Q2 = stallingstwist Q C 40
S2 = spin Q2
report S2
A = load figure8
B0 = load trefoil_L
C1 = load trefoil_R
B1 = connectsum B0 C1
P = plan A B1
report P
""",
}

GOLDEN_RUN_SHA256 = {
    "sum": "b6f32ed2e36c774933544dd047cb09ac731070b15fa3f7f1f3474a76f5ef90ca",
    "stallings": "738212fe3bd111001459ed82425540722ad662e6b532704047dbe86e4a733126",
}


def _golden_objects():
    knot = connected_sum(catalog_knot("trefoil_R"), catalog_knot("figure8"))
    curve = curated_payload("square_knot_stallings_c2")
    return {
        "knot": knot,
        "disk": disk_twist(half_spin(catalog_knot("trefoil_L")), curve, -16),
        "two_knot": spin(knot),
    }


GOLDEN_REPORT_SHA256 = {
    "knot": "4a91798d4b0d3eff90b6391e7e9d14ff169b57e5387421ddefcc7a9a3bec3da2",
    "disk": "20f9a949bd73222925a0a2848169464237796b868a3e8f33e76476b4a4727213",
    "two_knot": "6c3a9579b09df1f7f4321aa808da66c79fb0c9ec2a2642eb5e54a7a698b961ea",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
def test_run_report_bytes_are_golden(name, tmp_path, capsys):
    path = tmp_path / "script.fib"
    path.write_text(GOLDEN_SCRIPTS[name])
    assert main(["run", str(path), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_RUN_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_object_report_bytes_are_golden(name, tmp_path, capsys):
    path = tmp_path / "object.json"
    path.write_text(serialize.dumps(_golden_objects()[name]))
    assert main(["report", str(path), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_REPORT_SHA256[name]


# The text (non-`--json`) form of the same runs and reports, which prints
# every report field kind, plan entries included.
GOLDEN_RUN_TEXT_SHA256 = {
    "sum": "615c13724e925cd0c3596af140603a86b4022d95af3fb2cf3e3e12be10399069",
    "stallings": "10aa16d522cc07bf0f533d2f26566ff76a52b6d1c96405af552c462326ca2dcc",
}

GOLDEN_REPORT_TEXT_SHA256 = {
    "knot": "5fed66fa0d2c3cf10410f9c481cf69cf67895785430e717d2617c8302b8b1562",
    "disk": "302b316068075fd3baac6d290786279da041afb1c6fbb5197e88cae30b874bde",
    "two_knot": "aaa7e0412b231d14682a70c094afafd6edbbb5920c78376c449042c31ac03afc",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
def test_run_text_bytes_are_golden(name, tmp_path, capsys):
    path = tmp_path / "script.fib"
    path.write_text(GOLDEN_SCRIPTS[name])
    assert main(["run", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_RUN_TEXT_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_TEXT_SHA256))
def test_object_report_text_bytes_are_golden(name, tmp_path, capsys):
    path = tmp_path / "object.json"
    path.write_text(serialize.dumps(_golden_objects()[name]))
    assert main(["report", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_REPORT_TEXT_SHA256[name]


def test_cli_stallings_twist_over_the_letter_budget_is_an_error(tmp_path, capsys, monkeypatch):
    """A twist count of 10^12 once ended in a raw MemoryError; the power is
    refused at the letter budget (lowered here, so that the refusal comes
    early and small)."""
    monkeypatch.setattr(words, "POWER_LETTER_BUDGET", 10**5)
    path = tmp_path / "script.fib"
    path.write_text("Q = load square_knot\nC = load square_knot_stallings_c1\n"
                    "K = stallingstwist Q C 1000000000000\nreport K\n")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stallingstwist: power: one composition would write ")
    assert "more than the budget of 100000 (statement 2)" in captured.err


# Verb -> (argument kinds, result kind) for the script fuzz test.  A kind is
# the type of a bound name; "int" is a literal and "any" any bound name.
_FUZZ_VERBS = {
    "spin": (("knot",), "two_knot"),
    "halfspin": (("knot",), "disk"),
    "double": (("disk", "int"), "two_knot"),
    "disktwist": (("disk", "curve", "int"), "disk"),
    "stallingstwist": (("knot", "curve", "int"), "knot"),
    "glucktwist": (("two_knot",), "two_knot"),
    "torustwist": (("two_knot", "curve"), "two_knot"),
    "connectsum": (("knot", "knot"), "knot"),
    "plan": (("knot", "knot"), "plan"),
    "report": (("any",), None),
}
_FUZZ_KNOTS = ("unknot", "trefoil_R", "trefoil_L", "figure8", "square_knot", "granny_knot")
_FUZZ_CURVES = tuple(name for name in catalog_names()
                     if isinstance(curated_payload(name), CurveSpec))


@st.composite
def _fuzz_scripts(draw):
    """A script that binds a knot, a curve, a spin, a half-spin disk and a
    double, then applies up to five random verbs to bound names of the types
    the verbs take, with small twist counts."""
    lines = [f"K0 = load {draw(st.sampled_from(_FUZZ_KNOTS))}",
             f"C0 = load {draw(st.sampled_from(_FUZZ_CURVES))}",
             "S0 = spin K0", "H0 = halfspin K0", f"W0 = double H0 {draw(st.integers(-2, 2))}"]
    bound = {"knot": ["K0"], "curve": ["C0"], "two_knot": ["S0", "W0"], "disk": ["H0"]}
    for i in range(1, draw(st.integers(1, 5)) + 1):
        verb = draw(st.sampled_from(sorted(_FUZZ_VERBS)))
        kinds, result = _FUZZ_VERBS[verb]
        names = sorted(sum(bound.values(), []))
        args = [str(draw(st.integers(-3, 3))) if kind == "int"
                else draw(st.sampled_from(names if kind == "any" else bound[kind]))
                for kind in kinds]
        target = ""
        if result is not None:
            target = f"N{i} = "
            bound.setdefault(result, []).append(f"N{i}")
        lines.append(f"{target}{verb} {' '.join(args)}")
    return "\n".join(lines) + "\n"


@given(_fuzz_scripts())
@settings(max_examples=40, deadline=None)
def test_random_well_typed_scripts_exit_cleanly(source):
    """Every run exits 0, or prints `error:` and exits 1; an exception that
    escapes `main` fails the test with its traceback."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "script.fib"
        path.write_text(source)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--json"])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code == 1 and err.getvalue().startswith("error: "), (source, err.getvalue())


def _bound_names(source: str) -> list[str]:
    return [line.split(" = ")[0] for line in source.splitlines() if " = " in line]


def _reported_objects(source: str):
    """The reports of one run of `source`, up to a failing statement, and
    the objects they were made of."""
    objects = []
    report = script._report

    def recording(obj, rows):
        out = report(obj, rows)
        objects.append(obj)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(script, "_report", recording)
        try:
            reports = execute(source)
        except ScriptError as exc:
            reports = exc.reports
    return reports, objects


@given(_fuzz_scripts())
@settings(max_examples=40, deadline=None)
def test_run_reports_equal_separate_reports(source):
    """With every bound name reported at the end, the reports of one run
    equal, to the byte, `build_report` of each object on its own."""
    source += "".join(f"report {name}\n" for name in _bound_names(source))
    reports, objects = _reported_objects(source)
    assert len(reports) == len(objects)
    separate = [build_report(obj) for obj in objects]
    assert reports == separate
    assert reports_to_json(reports) == reports_to_json(separate)


SHARED_MAP_SCRIPT = """
K = load trefoil_L
report K
S = spin K
report S
G = glucktwist S
report G
D = halfspin K
report D
E = load square_knot_stallings_c2
D1 = disktwist D E 5
report D1
W = double D1 1
report W
"""


def test_run_computes_a_shared_fiber_maps_invariants_once(monkeypatch):
    """A knot, its spin, the Gluck twist, its half-spin disk, a disk twist
    of that disk and its double have one fiber map, so one run computes its
    Alexander polynomial and its H1 and hom counts once.  Δ(1) = 1 is odd,
    so the counts come from the homology action, with no presentation."""
    calls = {}
    for module, name in ((script, "char_poly"), (script, "_mapping_torus_invariants"),
                         (invariants, "hnn_presentation")):
        def counting(*args, _name=name, _function=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _function(*args)
        monkeypatch.setattr(module, name, counting)
    reports = execute(SHARED_MAP_SCRIPT)
    assert calls == {"char_poly": 1, "_mapping_torus_invariants": 1}
    assert [r.kind for r in reports] == ["fibered_knot"] + ["fibered_two_knot"] * 2 + \
        ["fibered_disk"] * 2 + ["fibered_two_knot"]
    assert len({(r.alexander, r.h1_diagonal, r.hom_counts) for r in reports}) == 1
    monkeypatch.undo()
    assert reports == [build_report(obj) for obj in _reported_objects(SHARED_MAP_SCRIPT)[1]]


def test_separate_runs_do_not_share_rows(monkeypatch):
    """The rows live for one `execute` call: a second run computes again."""
    execute("K = load figure8\nreport K\n")
    counted = []
    char_poly = script.char_poly
    monkeypatch.setattr(script, "char_poly", lambda a: counted.append(a) or char_poly(a))
    execute("K = load figure8\nreport K\nS = spin K\nreport S\n")
    assert len(counted) == 1


def _statements_by_constructor(source: str) -> SurgeryScript:
    """The statements of `source`, split by hand and built through the
    checked constructors, with the arguments passed as lists."""
    statements = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        target = None
        if tokens[1:2] == ["="]:
            target, tokens = tokens[0], tokens[2:]
        statements.append(Statement(tokens[0], list(tokens[1:]), target, lineno))
    return SurgeryScript(statements)


def _assert_same_statements(source: str):
    parsed, built = parse_script(source), _statements_by_constructor(source)
    assert type(parsed.statements) is tuple and parsed == built
    for mine, theirs in zip(parsed.statements, built.statements, strict=True):
        for name in ("verb", "args", "target", "line"):
            assert getattr(mine, name) == getattr(theirs, name)
            assert type(getattr(mine, name)) is type(getattr(theirs, name)), name
        assert all(type(arg) is str for arg in mine.args)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
def test_parsed_statements_equal_checked_statements(name):
    _assert_same_statements(GOLDEN_SCRIPTS[name])
    _assert_same_statements("# a comment\n\nK = load unknot  # trailing\nreport K\n")


@given(_fuzz_scripts())
@settings(max_examples=40, deadline=None)
def test_parsed_fuzz_statements_equal_checked_statements(source):
    _assert_same_statements(source)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(fibcalc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "fibcalc", "catalog"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "trefoil_R" in done.stdout and done.stderr == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["catalog", "run"])
def test_closed_stdout_ends_in_an_error_without_traceback(tmp_path, command, unbuffered):
    """`fibcalc catalog | head -2`: a reader that closes the pipe early gets
    `error:` on stderr and exit 1, not a traceback.  Buffered, the error
    comes from the last flush, and nothing may be left for the exit to flush;
    unbuffered, from the first print."""
    path = tmp_path / "script.fib"
    path.write_text("K = load trefoil_R\nreport K\n")
    src = Path(fibcalc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "fibcalc", command] + ([str(path)] if command == "run" else [])
    proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the first write, so that every write meets a closed pipe
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert stderr.startswith("error: ")


def test_run_checks_each_signature_once(tmp_path, capsys, monkeypatch):
    """`fibcalc run` passes the script text to `execute`, so the signatures
    are checked while parsing and not again per statement."""
    verbs = [stmt.verb for stmt in parse_script(GOLDEN_SCRIPTS["stallings"]).statements]
    checked = []
    problem = script._signature_problem
    monkeypatch.setattr(script, "_signature_problem",
                        lambda verb, args: checked.append(verb) or problem(verb, args))
    path = tmp_path / "script.fib"
    path.write_text(GOLDEN_SCRIPTS["stallings"])
    assert main(["run", str(path)]) == 0
    assert checked == verbs


# Time-free work gates on the golden runs.  A fiber map whose Δ(1) is odd
# builds no presentation, and its determinants decide what they can: H1 needs
# the Smith form of Aᵀ - I only when |Δ(1)| ≠ 1, and the one hom ψ ≠ 0 into
# Z/2, which S3 and D4 share, needs that of -I - Aᵀ only when 9 | Δ(-1) (for
# S3; D4 never, as Δ(-1) is odd).  `sum` has K2 = trefoil_R # figure8 #
# trefoil_L, with Δ(-1) = 45 (0 + 1), and the figure-8 disk twist (0 + 0).
# `stallings` twists at m = 40, H1 = Z + Z/41 (1 + 0), and at m = -1, where
# Δ(1) = 0 and the HNN presentation runs its H1 Smith form and three for the
# homs onto Z/2 of H1 = Z^2 (4).
@pytest.mark.parametrize("name, eliminations", [("stallings", 5), ("sum", 1)])
def test_golden_run_smith_work_gate(name, eliminations, tmp_path, capsys, monkeypatch):
    smiths = counted_smith(monkeypatch)
    path = tmp_path / "script.fib"
    path.write_text(GOLDEN_SCRIPTS[name])
    assert main(["run", str(path), "--json"]) == 0
    assert len(smiths) == eliminations


@pytest.mark.parametrize("name, presentations", [("stallings", 1), ("sum", 0)])
def test_golden_run_presentation_work_gate(name, presentations, tmp_path, capsys, monkeypatch):
    built = []
    hnn = invariants.hnn_presentation
    monkeypatch.setattr(invariants, "hnn_presentation",
                        lambda *args: built.append(args) or hnn(*args))
    path = tmp_path / "script.fib"
    path.write_text(GOLDEN_SCRIPTS[name])
    assert main(["run", str(path), "--json"]) == 0
    assert len(built) == presentations


@pytest.mark.parametrize("summands, eliminations", [
    ("figure8", 0), ("trefoil_R # figure8", 0), (" # ".join(["figure8"] * 6), 0),
    ("trefoil_R # trefoil_L", 1), (" # ".join(["trefoil_R"] * 6), 1)])
def test_fiber_row_smith_work_gate(summands, eliminations, monkeypatch):
    """Δ(1) = ±1 gives H1 = Z with no elimination, and Δ(-1) = 5, 15 or 5^6
    settles S3 and D4 with none; Δ(-1) = 9 or 3^6 leaves one Smith form of
    -I - Aᵀ, for S3 alone.  The row is the presentation route's."""
    f = _sum_of(summands.split(" # ")).monodromy.pi1_action
    smiths = counted_smith(monkeypatch)
    row = script._fiber_row({}, f)
    assert len(smiths) == eliminations
    monkeypatch.undo()
    assert row[1:] == presentation_invariants(hnn_presentation(f, handlebody_names(f.rank)))


def test_one_report_runs_one_h1_elimination(monkeypatch):
    """A report's H1 and its REPORT_GROUPS counts read one H1 Smith form (n
    generators x r relators); S3 and D4 then share the one Fox matrix (r x n)
    of the hom onto Z/2."""
    presentation = knot_group(_golden_objects()["knot"])
    n, r = presentation.n_generators, len(presentation.relators)
    smiths = counted_smith(monkeypatch)
    presentation_invariants(presentation)
    assert [(len(rows), columns) for rows, columns, _ in smiths] == [(n, r), (r, n)]


def test_readme_surgery_script_runs_and_names_every_verb():
    """The README's "Surgery scripts" example runs and reports a 2-knot and a
    plan, and its "Verbs:" sentence names the verbs `script.execute`
    knows, in the order of `_SIGNATURES`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("### Surgery scripts"):]
    start = section.index("```text\n") + len("```text\n")
    example = section[start:section.index("```", start)]
    verbs = section[section.index("Verbs: "):section.index("Parse errors")]
    assert [report.kind for report in execute(example)] == ["fibered_two_knot", "surgery_plan"]
    assert [entry.split()[0] for entry in verbs.split("`")[1::2]] == list(script._SIGNATURES)
