"""The certificates that live only in verify, with negative controls.

Each control patches a real defect into the code a check reads and asserts
that the named check of run_cell_checks or run_tower_checks catches it; the
controls of the library layers run `verify` through the CLI, which must
exit 1 with the ledger on stdout, not crash.
"""

import dataclasses
import json
import sys

import pytest

from scroll_ulrich import ScrollParams, classify_ulrich_line_bundles, enumerate_cases, verify
from scroll_ulrich import cohomology, extensions, ulrich
from scroll_ulrich.chow import (
    ZERO_CODIM2,
    ZERO_DIVISOR,
    Codim2Class,
    DivisorClass,
    mul_div_c2,
    mul_div_div,
)
from scroll_ulrich.cli import EXIT_VERIFY_FAILED, main
from scroll_ulrich.tower import TowerBundle, tower_quotient
from scroll_ulrich.ulrich import SWAP_TAG

F = DivisorClass(0, 0, 1)  # the fibre class: adds one to z

FULL_GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]


def _status(cell, name):
    rows = [r for r in verify.run_cell_checks(cell) if r.check == name]
    assert len(rows) == 1
    return rows[0]


def test_involution_transport_checks_pass_on_grid():
    for cell in FULL_GRID[::3]:
        p = ScrollParams(*cell)
        q = p.swapped()
        verify._check_involution_orbits(
            p,
            enumerate_cases(p, classify_ulrich_line_bundles(p)),
            enumerate_cases(q, classify_ulrich_line_bundles(q)),
        )


def test_controls_pass_unpatched():
    for cell in [(0, 0, 2), (0, 1, 3)]:
        assert _status(cell, "ext-involution-orbits").ok
        assert _status(cell, "ulrich-scan-bounds").ok


def test_swapped_swap_tag_entry_is_caught(monkeypatch):
    monkeypatch.setitem(SWAP_TAG, "L", "M")
    monkeypatch.setitem(SWAP_TAG, "L_dual", "M_dual")
    row = _status((0, 0, 2), "ext-involution-orbits")
    assert not row.ok and "swap tags wrong" in row.detail


def test_c2_off_by_one_is_caught(monkeypatch):
    original = verify.enumerate_cases
    cell = (0, 1, 3)

    def knocked(params, bundles):
        records = original(params, bundles)
        if params == ScrollParams(*cell):
            r = records[0]
            records[0] = dataclasses.replace(r, c2=r.c2 + Codim2Class(0, 0, 1))
        return records

    monkeypatch.setattr(verify, "enumerate_cases", knocked)
    row = _status(cell, "ext-involution-orbits")
    assert not row.ok and "c2 not transported" in row.detail


def test_ulrich_at_x_three_is_caught(monkeypatch):
    original = verify.is_ulrich_line
    monkeypatch.setattr(verify, "is_ulrich_line", lambda p, d: d.x == 3 or original(p, d))
    row = _status((0, 1, 3), "ulrich-scan-bounds")
    assert not row.ok


def test_ulrich_at_x_minus_one_is_caught(monkeypatch):
    original = verify.is_ulrich_line
    monkeypatch.setattr(verify, "is_ulrich_line", lambda p, d: d.x == -1 or original(p, d))
    row = _status((0, 1, 3), "ulrich-scan-bounds")
    assert not row.ok


def test_broken_factorization_is_caught(monkeypatch):
    original = verify.chi_closed_form
    monkeypatch.setattr(verify, "chi_closed_form", lambda p, d: original(p, d) + (d.x == 2))
    row = _status((0, 1, 3), "ulrich-scan-bounds")
    assert not row.ok


@pytest.mark.parametrize("c", [3, 300])
def test_scan_bound_certificate_is_constant_size(monkeypatch, c):
    calls = []
    original = verify.is_ulrich_line

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    monkeypatch.setattr(verify, "is_ulrich_line", counted)
    assert verify.verify_scan_bounds(ScrollParams(0, 1, c))
    assert len(calls) == 36


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` under every scroll_ulrich module name bound to it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("scroll_ulrich") and (
            getattr(module, original.__name__, None) is original
        ):
            monkeypatch.setattr(module, original.__name__, replacement)


def test_each_triple_is_classified_once(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return classify_ulrich_line_bundles(params)

    _patch_everywhere(monkeypatch, classify_ulrich_line_bundles, counted)
    verify.run_cell_checks((0, 0, 2))
    assert calls == [ScrollParams(0, 0, 2)]
    calls.clear()
    verify.run_cell_checks((0, 1, 3))
    assert calls == [ScrollParams(0, 1, 3), ScrollParams(1, 0, 3)]


def _tower_failures():
    rows = verify.run_tower_checks()
    assert len(rows) == 18 and {r.check for r in rows} == {"tower-closed-forms"}
    return [r for r in rows if not r.ok]


def test_closed_c2_off_by_one_is_caught(monkeypatch):
    real = verify._closed_c2

    def perturbed(params, r):
        value = real(params, r)
        return Codim2Class(value.p, value.q, value.r + (1 if r == 3 else 0))

    monkeypatch.setattr(verify, "_closed_c2", perturbed)
    failed = _tower_failures()
    assert len(failed) == 18 and all("Chern classes at r=3" in r.detail for r in failed)


def test_whitney_step_mutant_is_caught(monkeypatch):
    def mutant(params, r):
        quotients = tuple(tower_quotient(params, i) for i in range(1, r + 1))
        c1, c2, c3 = ZERO_DIVISOR, ZERO_CODIM2, 0
        for q in quotients:
            c2 = c2 + mul_div_div(c1, q, params)
            c3 = c3 + mul_div_c2(q, c2, params)  # reads the new c2
            c1 = c1 + q
        return TowerBundle(r, c1, c2, c3, quotients)

    monkeypatch.setattr(verify, "tower_chern", mutant)
    failed = _tower_failures()
    assert len(failed) == 18 and all("Chern classes at r=2" in r.detail for r in failed)


def test_h1_recursion_step_off_by_one_is_caught(monkeypatch):
    real = verify.tower_h1_recursion

    def mutant(params, r_max):
        values = real(params, r_max)
        for r in range(3, r_max + 1):
            values[r - 1] = values[r - 3] - 1 + 4  # extension step 4 instead of 3
        return values

    monkeypatch.setattr(verify, "tower_h1_recursion", mutant)
    failed = _tower_failures()
    assert len(failed) == 18 and all("h^1 at r=3" in r.detail for r in failed)


def _cli_failures(cell, capsys) -> set[str]:
    """The checks `verify` fails at `cell`, run through the CLI: exit 1, no crash."""
    a, b, c = cell
    code = main(["verify", "--a", str(a), "--b", str(b), "--c", str(c)])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY_FAILED
    assert not any(line.startswith("internal error") for line in captured.err.splitlines())
    report = json.loads(captured.out)
    assert any(t["name"] == "ledger" for t in report["tables"])
    checks = next(t for t in report["tables"] if t["name"] == "checks")
    return {row[3] for row in checks["rows"] if tuple(row[:3]) == cell and row[4] == "FAIL"}


def test_classify_accepting_n_z_plus_one_is_caught(monkeypatch, capsys):
    original = ulrich.is_ulrich_line
    named = ulrich.named_line_bundles
    monkeypatch.setattr(
        ulrich, "is_ulrich_line", lambda p, d: original(p, d) or d == named(p)["N"] + F
    )
    assert {"ulrich-count", "ulrich-no-unnamed"} <= _cli_failures((0, 1, 3), capsys)


def test_z_window_below_n_is_caught(monkeypatch, capsys):
    original = ulrich.z_window
    named = ulrich.named_line_bundles
    _patch_everywhere(
        monkeypatch, original, lambda p: range(original(p).start, named(p)["N"].z)
    )
    assert {"ulrich-scan-bounds", "ulrich-count"} <= _cli_failures((0, 1, 3), capsys)


def test_named_n_z_plus_one_is_caught(monkeypatch, capsys):
    original = ulrich.named_line_bundles

    def mutant(params):
        forms = original(params)
        forms["N"] = forms["N"] + F
        return forms

    _patch_everywhere(monkeypatch, original, mutant)
    assert {"ulrich-closed-forms", "ulrich-no-unnamed"} <= _cli_failures((0, 1, 3), capsys)


def test_chi_closed_form_plus_one_is_caught(monkeypatch, capsys):
    original = cohomology.chi_closed_form
    _patch_everywhere(monkeypatch, original, lambda p, d: original(p, d) + 1)
    assert {"cohomology-chi-oracle", "ulrich-scan-bounds"} <= _cli_failures((0, 1, 3), capsys)


def test_ext1_dim_reversed_is_caught(monkeypatch, capsys):
    original = extensions.ext1_dim
    _patch_everywhere(monkeypatch, original, lambda p, u, v: original(p, v, u))
    assert {"ext-N-NU", "ext-NU-N"} <= _cli_failures((1, 2, 4), capsys)
