"""Command-line surface: classification, cohomology, ext and tower reports.

Reports are built once as (meta, tables) and rendered to JSON, Markdown or
CSV with identical numeric content.  JSON output is canonical: sorted keys,
two-space indent, no floats; exact rationals are reduced fraction strings.
Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 internal error (an uncaught exception: one line on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Iterator
from typing import NamedTuple

# Every command runs chow and cohomology.  Each command imports the other
# layers it runs where it runs: every CLI call is a fresh interpreter, which
# would otherwise load (and, with no cached bytecode, compile) every layer.
from .chow import DivisorClass, ScrollParams, mul_div_c2, mul_div_div, numerical_invariants
from .cohomology import chi_closed_form, h_scroll, serre_dual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    """Bad ranges or malformed values; maps to exit code 2."""


class Table(NamedTuple):
    name: str
    columns: list[str]
    rows: list[list]


class Report(NamedTuple):
    command: str
    meta: dict
    tables: list[Table]


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def render_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "meta": report.meta,
        "tables": [
            {"name": t.name, "columns": t.columns, "rows": t.rows} for t in report.tables
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_markdown(report: Report) -> str:
    out = [f"# {report.command}", ""]
    for key in sorted(report.meta):
        out.append(f"- {key}: {_fmt_cell(report.meta[key])}")
    for t in report.tables:
        out.append("")
        out.append(f"## {t.name}")
        out.append("")
        out.append("| " + " | ".join(t.columns) + " |")
        out.append("|" + "|".join(" --- " for _ in t.columns) + "|")
        for row in t.rows:
            out.append("| " + " | ".join(_fmt_cell(v) for v in row) + " |")
    out.append("")
    return "\n".join(out)


def render_csv(report: Report) -> str:
    import csv  # only --format csv needs it; every CLI call pays for what cli imports

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for t in report.tables:
        writer.writerow(["table"] + t.columns)
        for row in t.rows:
            writer.writerow([t.name] + [_fmt_cell(v) for v in row])
    return buf.getvalue()


RENDERERS = {"json": render_json, "markdown": render_markdown, "csv": render_csv}


def parse_range(text: str) -> range:
    """'k' or 'lo..hi' (inclusive) to a range."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            r = range(int(lo), int(hi) + 1)
        else:
            v = int(text)
            r = range(v, v + 1)
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: expected 'k' or 'lo..hi'") from exc
    if len(r) == 0:
        raise ConfigError(f"empty range {text!r}")
    return r


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"bad triple {text!r}: expected 'x,y,z'")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"bad triple {text!r}: entries must be integers") from exc


def _div(text: str) -> DivisorClass:
    return DivisorClass(*parse_triple(text))


def _params(text: str) -> ScrollParams:
    """--params 'a,b,c'; a triple outside the valid range is a config error."""
    try:
        return ScrollParams(*parse_triple(text))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cells(args) -> Iterator[tuple[int, int, int, ScrollParams | None, bool]]:
    """Grid cells (a, b, c, params, normalized), with a <= b if --normalize.

    `params` is None where ScrollParams rejects the triple.
    """
    a_range, b_range = parse_range(args.a), parse_range(args.b)
    for a in a_range:
        for b in b_range:
            c_range = parse_range(args.c) if args.c else range(a + b + 1, a + b + 7)
            normalized = args.normalize and a > b
            aa, bb = (b, a) if normalized else (a, b)
            for c in c_range:
                try:
                    params = ScrollParams(aa, bb, c)
                except ValueError:
                    params = None
                yield aa, bb, c, params, normalized


def _coeffs(t: tuple[int, ...]) -> str:
    """A class or coefficient tuple as 'x,y,z'."""
    return ",".join(map(str, t))


def cmd_classify(args) -> tuple[Report, int]:
    from .ulrich import DUAL_TAG, classify_ulrich_line_bundles, slope

    table = Table(
        "ulrich-line-bundles",
        ["a", "b", "c", "status", "tag", "divisor", "dual_tag", "dual", "h0", "slope"],
        [],
    )
    cells = list(_cells(args))
    for a, b, c, params, normalized in cells:
        if params is None:
            table.rows.append([a, b, c, "skipped", "", "", "", "", "", ""])
            continue
        status = "normalized" if normalized else "ok"
        table.rows.extend(
            [
                a, b, c, status,
                rec.tag,
                _coeffs(rec.divisor),
                DUAL_TAG[rec.tag],
                _coeffs(rec.special_pairing),
                h_scroll(params, rec.divisor).h0,
                str(slope(params, rec.divisor, 1)),
            ]
            for rec in classify_ulrich_line_bundles(params)
        )
    skipped = sum(params is None for _, _, _, params, _ in cells)
    meta = {"bundles": len(table.rows) - skipped, "cells": len(cells), "skipped_cells": skipped}
    return Report("classify", meta, [table]), EXIT_OK


def cmd_cohom(args) -> tuple[Report, int]:
    params = _params(args.params)
    div = _div(args.div)
    vec = h_scroll(params, div)
    dual = serre_dual(params, div)
    dual_vec = h_scroll(params, dual)
    table = Table(
        "cohomology",
        ["divisor", "h0", "h1", "h2", "h3", "chi", "chi_closed_form"],
        [
            [_coeffs(div), *vec, vec.chi, chi_closed_form(params, div)],
            [_coeffs(dual), *dual_vec, dual_vec.chi, chi_closed_form(params, dual)],
        ],
    )
    meta = {
        "a": params.a, "b": params.b, "c": params.c,
        "serre_dual": _coeffs(dual),
        "serre_reversal_ok": vec.reversed() == dual_vec,
    }
    return Report("cohom", meta, [table]), EXIT_OK


def cmd_chow(args) -> tuple[Report, int]:
    params = _params(args.params)
    d1, d2 = _div(args.d1), _div(args.d2)
    prod = mul_div_div(d1, d2, params)
    rows = [["d1.d2 (xiC0,xiF,C0F)", _coeffs(prod)]]
    if args.d3:
        d3 = _div(args.d3)
        rows.append(["d1.d2.d3", mul_div_c2(d3, prod, params)])
    n, d, g = numerical_invariants(params)
    meta = {"a": params.a, "b": params.b, "c": params.c, "n": n, "degree": d, "genus": g}
    return Report("chow", meta, [Table("products", ["expression", "value"], rows)]), EXIT_OK


def cmd_ext_table(args) -> tuple[Report, int]:
    from .extensions import enumerate_cases, moduli_predictions
    from .ulrich import classify_ulrich_line_bundles

    records = Table(
        "rank2-extensions",
        [
            "a", "b", "c", "case", "sub_tag", "quot_tag", "sub", "quot", "ext_dim",
            "c1", "c2", "chi_endo", "h2_endo", "special",
            "c1_twisted", "c2_twisted", "obstructed_base_a", "obstructed_base_b",
            "pullback_obstructed",
        ],
        [],
    )
    predictions = Table(
        "moduli-predictions",
        ["a", "b", "c", "case", "kind", "dimension", "generically_smooth", "special", "note"],
        [],
    )
    cells = list(_cells(args))
    for a, b, c, params, _ in cells:
        if params is None:
            continue
        recs = enumerate_cases(params, classify_ulrich_line_bundles(params))
        records.rows.extend(
            [
                a, b, c, r.case_id, r.sub_tag, r.quot_tag,
                _coeffs(r.sub), _coeffs(r.quotient), r.ext_dim,
                _coeffs(r.c1), _coeffs(r.c2),
                r.chi_endo, r.h2_endo, r.special,
                _coeffs(r.c1_twisted), _coeffs(r.c2_twisted),
                r.obstruction.from_base_a, r.obstruction.from_base_b,
                r.obstruction.from_both,
            ]
            for r in recs
        )
        predictions.rows.extend(
            [
                a, b, c, p.case_id, p.dimension_kind, p.dimension,
                p.generically_smooth, p.special, p.branch_note,
            ]
            for p in moduli_predictions(params, recs)
        )
    skipped = sum(params is None for _, _, _, params, _ in cells)
    meta = {"records": len(records.rows), "skipped_cells": skipped}
    return Report("ext-table", meta, [records, predictions]), EXIT_OK


def cmd_tower_report(args) -> tuple[Report, int]:
    from .tower import (
        chi_endo_tower,
        in_tower_hypothesis,
        iter_tower,
        moduli_dim_gap,
        moduli_dim_tower,
        tower_h1_recursion,
    )
    from .ulrich import slope

    if args.rmax < 1:
        raise ConfigError(f"--rmax must be >= 1, got {args.rmax}")
    chern = Table(
        "tower-chern",
        ["a", "b", "c", "r", "c1", "c2", "c3", "slope", "chi_endo",
         "moduli_dim", "gap", "outside_hypothesis"],
        [],
    )
    h1_table = Table("tower-h1", ["a", "b", "c", "r", "h1"], [])
    skipped = 0
    for a, b, c, params, _ in _cells(args):
        if params is None:
            skipped += 1
            continue
        inside = in_tower_hypothesis(params)
        for tw in iter_tower(params, args.rmax):
            r = tw.rank
            chern.rows.append(
                [
                    a, b, c, r,
                    _coeffs(tw.c1), _coeffs(tw.c2), tw.c3,
                    str(slope(params, tw.c1, r)),
                    chi_endo_tower(params, r) if inside else "",
                    moduli_dim_tower(r),
                    moduli_dim_gap(r) if r >= 2 else "",
                    not inside,
                ]
            )
        if inside:
            for r, h1 in enumerate(tower_h1_recursion(params, args.rmax), start=1):
                h1_table.rows.append([a, b, c, r, h1])
    meta = {"rmax": args.rmax, "skipped_cells": skipped}
    return Report("tower-report", meta, [chern, h1_table]), EXIT_OK


def cmd_instanton(args) -> tuple[Report, int]:
    from .extensions import instanton_admissible

    table = Table(
        "instanton-triples",
        ["c", "case", "k1", "k2", "k3", "charge", "c2_after_twist", "predicted_dim"],
        [],
    )
    for c in parse_range(args.c_range):
        if c < 1:
            raise ConfigError(f"instanton requires c >= 1, got {c}")
        for t in instanton_admissible(c):
            table.rows.append(
                [c, t.case, t.k1, t.k2, t.k3, t.charge,
                 _coeffs(t.c2_after_twist), t.predicted_dim]
            )
    return Report("instanton", {"rows": len(table.rows)}, [table]), EXIT_OK


def cmd_verify(args) -> tuple[Report, int]:
    from . import verify as verify_mod

    cells = {(a, b, c) for a, b, c, params, _ in _cells(args) if params is not None}
    if not cells:
        raise ConfigError("no valid cells in the grid")
    results = verify_mod.run_grid(cells)
    failed = [r for r in results if not r.ok]

    # one ledger row per replayed claim, aggregated over the grid
    by_claim: dict[str, list[int]] = {}
    for r in results:
        runs = by_claim.setdefault(r.check, [0, 0])
        runs[0] += 1
        runs[1] += 0 if r.ok else 1
    ledger = Table("ledger", ["check", "runs", "failures", "status"], [
        [name, runs, bad, "pass" if bad == 0 else "FAIL"]
        for name, (runs, bad) in sorted(by_claim.items())
    ])
    table = Table("checks", ["a", "b", "c", "check", "status", "detail"],
                  [r.row() for r in (results if args.all else failed)])
    summary = Table("summary", ["checks", "passed", "failed"],
                    [[len(results), len(results) - len(failed), len(failed)]])
    meta = {"cells": len(cells), "failed": len(failed)}
    code = EXIT_OK if not failed else EXIT_VERIFY_FAILED
    return Report("verify", meta, [summary, ledger, table]), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scroll-ulrich",
        description="Exact Ulrich-bundle invariants on threefold scrolls over Hirzebruch surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p, c_default=None):
        p.add_argument("--a", required=True, help="value or lo..hi")
        p.add_argument("--b", required=True, help="value or lo..hi")
        p.add_argument("--c", default=c_default,
                       help="value or lo..hi (default: a+b+1..a+b+6 per cell)")
        p.add_argument("--normalize", action="store_true",
                       help="apply the a <= b convention by swapping")

    p = sub.add_parser("classify", help="Ulrich line bundles per grid cell")
    add_grid(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cohom", help="cohomology of one line bundle")
    p.add_argument("--params", required=True, help="a,b,c")
    p.add_argument("--div", required=True, help="x,y,z")
    p.set_defaults(func=cmd_cohom)

    p = sub.add_parser("chow", help="intersection products")
    p.add_argument("--params", required=True, help="a,b,c")
    p.add_argument("--d1", required=True, help="x,y,z")
    p.add_argument("--d2", required=True, help="x,y,z")
    p.add_argument("--d3", help="x,y,z (optional: triple product)")
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("ext-table", help="rank-two extension records and moduli predictions")
    add_grid(p)
    p.set_defaults(func=cmd_ext_table)

    p = sub.add_parser("tower-report", help="iterated extension tower invariants")
    add_grid(p)
    p.add_argument("--rmax", type=int, default=8)
    p.set_defaults(func=cmd_tower_report)

    p = sub.add_parser("instanton", help="admissible instanton c2 triples")
    p.add_argument("--c", dest="c_range", required=True, help="value or lo..hi")
    p.set_defaults(func=cmd_instanton)

    p = sub.add_parser("verify", help="replay the verification grid; exit 1 on any failure")
    add_grid(p)
    p.add_argument("--all", action="store_true", help="list passing checks too")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--format", choices=sorted(RENDERERS), default="json")
    return parser


def _write_stdout(text: str) -> None:
    """Write and flush `text`, so that a report that cannot be written fails here.

    A failed write closes stdout: what a failed flush leaves in the buffer
    would otherwise fail again at interpreter exit, and turn the exit code
    into 120.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        try:
            sys.stdout.close()  # closes the file even where its flush fails
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        _write_stdout(RENDERERS[args.format](report))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a defect, not a failed check: keep it apart from exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if code != EXIT_OK:
        print(f"verification failed: {report.meta.get('failed')} checks", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
