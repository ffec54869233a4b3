"""Command-line surface: wire formats, render invariants, exit codes."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scroll_ulrich
from scroll_ulrich import cli
from scroll_ulrich import verify as verify_mod
from scroll_ulrich.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
    render_json,
    render_markdown,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_segre_rows(capsys):
    code, out, _ = run(["classify", "--a", "0", "--b", "0", "--c", "1..3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    rows = report["tables"][0]["rows"]
    assert len(rows) == 18  # three cells with six bundles each
    assert report["meta"]["bundles"] == 18


def test_classify_two_bundles(capsys):
    code, out, _ = run(["classify", "--a", "1", "--b", "2", "--c", "4"], capsys)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["meta"]["bundles"] == 2


def test_classify_skipped_cell(capsys):
    code, out, _ = run(["classify", "--a", "0", "--b", "0", "--c", "0"], capsys)
    report = json.loads(out)
    assert code == EXIT_OK
    rows = report["tables"][0]["rows"]
    assert len(rows) == 1 and rows[0][3] == "skipped"


def test_classify_normalize(capsys):
    code, out, _ = run(
        ["classify", "--a", "2", "--b", "0", "--c", "4", "--normalize"], capsys
    )
    report = json.loads(out)
    rows = report["tables"][0]["rows"]
    assert all(row[0] == 0 and row[1] == 2 and row[3] == "normalized" for row in rows)


def test_cohom_values(capsys):
    code, out, _ = run(["cohom", "--params", "0,1,2", "--div", "0,2,-3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tables"][0]["rows"][0][2] == 6  # h1
    assert report["meta"]["serre_reversal_ok"] is True

    code, out, _ = run(["cohom", "--params", "0,0,1", "--div", "0,0,0"], capsys)
    assert json.loads(out)["tables"][0]["rows"][0][1:5] == [1, 0, 0, 0]

    code, out, _ = run(["cohom", "--params", "1,1,3", "--div=-1,5,9"], capsys)
    assert json.loads(out)["tables"][0]["rows"][0][1:5] == [0, 0, 0, 0]


def test_cohom_bad_inputs(capsys):
    code, _, err = run(["cohom", "--params", "0,0,0", "--div", "0,0,0"], capsys)
    assert code == EXIT_USAGE and "very ample" in err
    code, _, err = run(["cohom", "--params", "0,0,1", "--div", "1,2"], capsys)
    assert code == EXIT_USAGE


def test_chow_triple(capsys):
    code, out, _ = run(
        ["chow", "--params", "1,1,3", "--d1", "1,1,3", "--d2", "1,1,3", "--d3", "1,1,3"],
        capsys,
    )
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["meta"]["degree"] == 12
    assert report["tables"][0]["rows"][1] == ["d1.d2.d3", 12]


def test_ext_table_case2_row(capsys):
    code, out, _ = run(["ext-table", "--a", "0", "--b", "1", "--c", "3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    records = {t["name"]: t for t in report["tables"]}["rank2-extensions"]
    case2 = [r for r in records["rows"] if r[3] == 2]
    ext_dims = {r[8] for r in case2}
    assert 12 in ext_dims  # ext^1(L, L^U) = 3(2c - b - 1)
    preds = {t["name"]: t for t in report["tables"]}["moduli-predictions"]
    row2 = [r for r in preds["rows"] if r[3] == 2][0]
    assert row2[4] == "exact" and row2[5] == 17


def test_ext_table_case1_dim_five(capsys):
    code, out, _ = run(["ext-table", "--a", "1", "--b", "1", "--c", "3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    preds = {t["name"]: t for t in report["tables"]}["moduli-predictions"]
    row1 = [r for r in preds["rows"] if r[3] == 1][0]
    assert row1[4] == "exact" and row1[5] == 5


def test_tower_report(capsys):
    code, out, _ = run(
        ["tower-report", "--a", "0", "--b", "0", "--c", "1", "--rmax", "4"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(out)
    chern = [t for t in report["tables"] if t["name"] == "tower-chern"][0]
    assert [row[9] for row in chern["rows"]] == [0, 5, 8, 17]
    h1 = [t for t in report["tables"] if t["name"] == "tower-h1"][0]
    assert [row[4] for row in h1["rows"]] == [3, 3, 5, 5]


@pytest.mark.parametrize("rmax", ["0", "-3"])
def test_tower_rmax_below_one_is_usage_error(capsys, rmax):
    code, out, err = run(
        ["tower-report", "--a", "0", "--b", "0", "--c", "1", "--rmax", rmax], capsys
    )
    assert code == EXIT_USAGE and "--rmax" in err and not out


def test_instanton_cli(capsys):
    code, out, _ = run(["instanton", "--c", "2"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)["tables"][0]["rows"]
    betas = [r for r in rows if r[1] == "beta"]
    assert len(betas) == 3 and all(r[7] == 9 for r in betas)


def test_json_round_trip(capsys):
    _, out, _ = run(["classify", "--a", "0", "--b", "1", "--c", "2..3"], capsys)
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


def test_markdown_and_json_carry_identical_content(capsys):
    args = ["ext-table", "--a", "0", "--b", "0", "--c", "2"]
    _, json_out, _ = run(args, capsys)
    _, md_out, _ = run(args + ["--format", "markdown"], capsys)
    report = json.loads(json_out)

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return "" if v is None else str(v)

    md_rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in md_out.splitlines()
        if line.startswith("| ") and " --- " not in line
    ]
    json_rows = []
    for t in report["tables"]:
        json_rows.append(t["columns"])
        json_rows.extend([[fmt(v) for v in row] for row in t["rows"]])
    assert md_rows == json_rows


def test_verify_small_grid(capsys):
    code, out, err = run(["verify", "--a", "0", "--b", "1", "--c", "2..3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["meta"]["failed"] == 0


def test_verify_negative_control_exits_one(capsys, monkeypatch):
    # a closed c3 off by one at one rank must fail verify, and be named
    real = verify_mod._closed_c3
    monkeypatch.setattr(verify_mod, "_closed_c3", lambda p, r: real(p, r) + (r == 5))
    code, out, err = run(["verify", "--a", "0", "--b", "0", "--c", "1"], capsys)
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out)
    rows = [t for t in report["tables"] if t["name"] == "checks"][0]["rows"]
    assert report["meta"]["failed"] == len(rows) > 0
    assert {r[3] for r in rows} == {"tower-closed-forms"}
    assert "Chern classes at r=5" in rows[0][5]


def _fresh_python(args, stdout=subprocess.PIPE, **env):
    """Run `python args` in a new interpreter that imports this checkout's package."""
    path = [str(Path(scroll_ulrich.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env}
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
    )


def test_cli_import_loads_no_process_pool_or_dataclasses():
    # every CLI call pays for what `import scroll_ulrich.cli` loads; a process
    # pool would pull in the `concurrent` and `multiprocessing` packages,
    # `dataclasses` pulls in `inspect` (with `ast`, `dis` and `tokenize`), each
    # command imports the layers beyond chow and cohomology that it runs, and
    # only `--format csv` needs `csv`; `fractions` comes with `ulrich`
    code = (
        "import sys, scroll_ulrich.cli; "
        "print([m for m in ('concurrent', 'multiprocessing', 'dataclasses', 'inspect', "
        "'scroll_ulrich.ulrich', 'scroll_ulrich.extensions', 'scroll_ulrich.tower', "
        "'scroll_ulrich.verify', 'csv', 'fractions') if m in sys.modules])"
    )
    out = _fresh_python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_EVERY_COMMAND = {"chow", "cohomology"}


@pytest.mark.parametrize("argv, layers", [
    pytest.param(["cohom", "--params", "1,1,3", "--div", "1,1,1"], set(), id="cohom"),
    pytest.param(["chow", "--params", "1,1,3", "--d1", "1,0,0", "--d2", "0,1,0"], set(),
                 id="chow"),
    pytest.param(["classify", "--a", "0", "--b", "0", "--c", "1"], {"ulrich"}, id="classify"),
    pytest.param(["tower-report", "--a", "0", "--b", "1", "--c", "3", "--rmax", "2"],
                 {"ulrich", "tower"}, id="tower-report"),
    pytest.param(["ext-table", "--a", "0", "--b", "0", "--c", "2"],
                 {"ulrich", "extensions"}, id="ext-table"),
    pytest.param(["instanton", "--c", "1"], {"ulrich", "extensions"}, id="instanton"),
    pytest.param(["verify", "--a", "0", "--b", "0", "--c", "1"],
                 {"ulrich", "extensions", "tower", "verify"}, id="verify"),
])
def test_each_command_loads_only_the_layers_it_runs(argv, layers):
    code = (
        "import sys\n"
        "from scroll_ulrich.cli import main\n"
        f"code = main({argv!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('scroll_ulrich.')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = _fresh_python(["-c", code])
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout
    expected = sorted(f"scroll_ulrich.{m}" for m in {"cli", *_EVERY_COMMAND, *layers})
    assert out.stderr == f"{expected}\n"


# `scroll_ulrich.__all__` as the package listed it when it imported every layer
_PUBLIC_NAMES = [
    "Codim2Class", "CohomologyVector", "DivisorClass",
    "InstantonTriple", "ModuliPrediction", "Rank2ExtensionRecord", "ScrollParams",
    "TowerBundle", "UlrichLineBundleRecord", "base_swap", "chi",
    "chi_closed_form", "chi_endo_tower", "chi_filtered", "chi_tower_vs_line",
    "classify_ulrich_line_bundles", "enumerate_cases",
    "h_scroll", "instanton_admissible",
    "is_special_rank2", "is_ulrich_line", "iter_tower", "moduli_dim_gap", "moduli_dim_tower",
    "moduli_predictions", "mul_div_c2", "mul_div_div", "named_line_bundles",
    "numerical_invariants", "pullback_obstruction_report", "serre_dual", "slope",
    "tower_h1_recursion", "triple", "ulrich_dual", "whitney",
]


def test_package_imports_a_layer_when_one_of_its_names_is_first_used():
    code = (
        "import json, sys\n"
        "import scroll_ulrich as pkg\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scroll_ulrich.'))\n"
        "listed = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
        "star = {}\n"
        "exec('from scroll_ulrich import *', star)\n"
        "foreign = [n for n in pkg.__all__ if not star[n].__module__.startswith('scroll_ulrich.')\n"
        "           or getattr(sys.modules[star[n].__module__], n) is not star[n]\n"
        "           or getattr(pkg, n) is not star[n]]\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'loaded': loaded, 'not_in_dir': listed, 'all': pkg.__all__,\n"
        "                  'star': sorted(set(star) - {'__builtins__'}), 'foreign': foreign,\n"
        "                  'unknown': unknown}))\n"
    )
    out = _fresh_python(["-c", code])
    assert out.returncode == 0, out.stderr
    facts = json.loads(out.stdout)
    assert facts["loaded"] == []
    assert facts["not_in_dir"] == []
    assert facts["all"] == _PUBLIC_NAMES
    assert facts["star"] == _PUBLIC_NAMES
    assert facts["foreign"] == []
    assert facts["unknown"] == "module 'scroll_ulrich' has no attribute 'no_such_name'"


def test_every_public_function_has_a_caller(capsys):
    # each public function is reached by some command, so no entry point is dead code
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    commands = [
        ["verify", "--a", "0..2", "--b", "0..2", "--normalize"],
        ["ext-table", "--a", "0", "--b", "0", "--c", "2"],
        ["tower-report", "--a", "0", "--b", "1", "--c", "3", "--rmax", "3"],
        ["classify", "--a", "0", "--b", "0", "--c", "1"],
        ["cohom", "--params", "1,1,3", "--div", "1,1,1"],
        ["chow", "--params", "1,1,3", "--d1", "1,0,0", "--d2", "0,1,0", "--d3", "0,0,1"],
        ["instanton", "--c", "1..2"],
    ]
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [EXIT_OK] * len(commands)
    functions = {n: getattr(scroll_ulrich, n) for n in scroll_ulrich.__all__}
    functions = {n: f for n, f in functions.items() if inspect.isfunction(f)}
    assert len(functions) > 20
    assert [n for n, f in functions.items() if f.__code__ not in called] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "0", "--b", "0", "--c", "1"],
    ["classify", "--a", "1", "--b", "2", "--c", "4", "--format", "csv"],
])
def test_lazily_imported_commands_run_in_a_fresh_process(argv):
    # in this process the test modules have imported verify and csv already
    out = _fresh_python(["-m", "scroll_ulrich.cli", *argv])
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout and not out.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_report_that_cannot_be_written_is_internal_error(unbuffered):
    argv = ["-m", "scroll_ulrich.cli", "cohom", "--params", "1,1,3", "--div", "1,1,1"]
    # buffered, the write succeeds and the flush fails; unbuffered, the write fails
    with open("/dev/full", "w") as full:
        out = _fresh_python(argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert out.returncode == EXIT_INTERNAL
    assert out.stderr.startswith("internal error: OSError") and out.stderr.count("\n") == 1


def test_empty_grid_is_usage_error(capsys):
    code, _, err = run(["verify", "--a", "0", "--b", "5", "--c", "2"], capsys)
    assert code == EXIT_USAGE


def test_bad_range_is_usage_error(capsys):
    code, _, err = run(["classify", "--a", "3..1", "--b", "0", "--c", "5"], capsys)
    assert code == EXIT_USAGE and "range" in err


def test_uncaught_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    code, out, err = run(["classify", "--a", "0", "--b", "0", "--c", "1"], capsys)
    assert code == EXIT_INTERNAL
    assert EXIT_INTERNAL not in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE)
    assert out == "" and err == "internal error: RuntimeError: boom\n"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == EXIT_USAGE


def test_csv_format(capsys):
    code, out, _ = run(
        ["classify", "--a", "1", "--b", "2", "--c", "4", "--format", "csv"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("table,a,b,c,")
    assert len(lines) == 3  # header + two bundles
