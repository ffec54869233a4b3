"""The certificates that live only in verify, with negative controls.

Each control patches a real defect into the code a check reads and asserts
that the named check of run_cell_checks or run_tower_checks catches it; the
controls of the library layers run `verify` through the CLI, which must
exit 1 with the ledger on stdout, not crash.
"""

import json
import sys

import pytest

from scroll_ulrich import ScrollParams, classify_ulrich_line_bundles, enumerate_cases, verify
from scroll_ulrich import cohomology, extensions, ulrich
from scroll_ulrich.chow import Codim2Class, DivisorClass, mul_div_c2, mul_div_div
from scroll_ulrich.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
from scroll_ulrich.tower import TowerBundle, _quotients
from scroll_ulrich.ulrich import SWAP_TAG

F = DivisorClass(0, 0, 1)  # the fibre class: adds one to z

FULL_GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]


def _cell_checks(cell):
    return verify.run_cell_checks(cell, verify.cohomology_failures(ScrollParams(*cell)))


def _status(cell, name):
    rows = [r for r in _cell_checks(cell) if r.check == name]
    assert len(rows) == 1
    return rows[0]


def test_involution_transport_checks_pass_on_grid():
    for cell in FULL_GRID[::3]:
        p = ScrollParams(*cell)
        q = p.swapped()
        failures = verify._check_involution_orbits(
            p,
            enumerate_cases(p, classify_ulrich_line_bundles(p)),
            enumerate_cases(q, classify_ulrich_line_bundles(q)),
        )
        assert list(failures) == [], cell


def test_controls_pass_unpatched():
    for cell in [(0, 0, 2), (0, 1, 3)]:
        assert _status(cell, "ext-involution-orbits").ok
        assert _status(cell, "ulrich-scan-bounds").ok


def test_swapped_swap_tag_entry_is_caught(monkeypatch):
    monkeypatch.setitem(SWAP_TAG, "L", "M")
    monkeypatch.setitem(SWAP_TAG, "L_dual", "M_dual")
    row = _status((0, 0, 2), "ext-involution-orbits")
    assert not row.ok and "swap tags wrong" in row.detail


@pytest.mark.parametrize("cell, case, message", [
    ((0, 0, 2), 7, "swap image of case 2 leaves its orbit"),
    ((0, 1, 3), 6, "dual image of case 3 leaves its orbit"),
], ids=["swap", "dual"])
def test_wrong_orbit_representative_is_caught(monkeypatch, cell, case, message):
    monkeypatch.setitem(extensions.ORBIT_REPRESENTATIVE, case, case)
    row = _status(cell, "ext-involution-orbits")
    assert not row.ok and message in row.detail


def test_c2_off_by_one_is_caught(monkeypatch):
    original = verify.enumerate_cases
    cell = (0, 1, 3)

    def knocked(params, bundles):
        records = original(params, bundles)
        if params == ScrollParams(*cell):
            r = records[0]
            records[0] = r._replace(c2=r.c2 + Codim2Class(0, 0, 1))
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
    _cell_checks((0, 0, 2))
    assert calls == [ScrollParams(0, 0, 2)]
    calls.clear()
    _cell_checks((0, 1, 3))
    assert calls == [ScrollParams(0, 1, 3), ScrollParams(1, 0, 3)]


def test_each_column_is_swept_once(monkeypatch, capsys):
    """One cohomology sweep per (a, b), which also serves the representative box of its
    family; then one per representative family outside the grid."""
    calls = []
    original = verify.chi_closed_form

    def counted(params, div):
        if div.as_tuple() == (-1, -1, 0):  # on the strips, inside every family's walls
            calls.append((params.a, params.b))
        return original(params, div)

    monkeypatch.setattr(verify, "chi_closed_form", counted)
    assert main(["verify", "--a", "0..1", "--b", "0..1", "--normalize"]) == EXIT_OK
    capsys.readouterr()
    assert calls == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 3)]


@pytest.mark.parametrize("c", [3, 300])
def test_cohomology_sweep_is_constant_size(monkeypatch, c):
    calls = []
    original = verify.chi_closed_form

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    monkeypatch.setattr(verify, "chi_closed_form", counted)
    assert verify.cohomology_failures(ScrollParams(0, 1, c)) == []
    assert len(calls) == 573


@pytest.mark.parametrize("where, failing", [
    ((3, 3, 3), {2, 3, 4, "representative"}),  # one past the upper wall of the line (3, 3)
    ((0, 0, 0), {2, 3, 4, "representative"}),  # inside every box
    ((4, 0, 0), {"representative"}),  # inside only the representative box (0, 1, 2)
])
def test_column_sweep_reports_each_cells_own_first_failure(monkeypatch, capsys, where, failing):
    chi = verify.chi_closed_form
    monkeypatch.setattr(verify, "chi_closed_form", lambda p, d: chi(p, d) + (d.as_tuple() == where))
    assert main(["verify", "--a", "0", "--b", "1", "--c", "2..4", "--all"]) == EXIT_VERIFY_FAILED
    checks = next(t for t in json.loads(capsys.readouterr().out)["tables"] if t["name"] == "checks")
    rows = [tuple(r[:3] + r[4:]) for r in checks["rows"] if r[3] == "cohomology-chi-oracle"]
    assert rows == [
        (0, 1, c, "FAIL", f"chi mismatch at {where}") if c in failing else (0, 1, c, "pass", "")
        for c in (2, 3, 4)
    ]
    (box,) = [r[4:] for r in checks["rows"]
              if r[:4] == [0, 1, 2, "cohomology-chi-oracle-representative-box"]]
    assert box == (["FAIL", f"chi mismatch at {where}"] if "representative" in failing else ["pass", ""])


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
    def mutant(params, r_max):
        c1, c2, c3 = DivisorClass(0, 0, 0), Codim2Class(0, 0, 0), 0
        for r, q in enumerate(_quotients(params, r_max), start=1):
            c2 = c2 + mul_div_div(c1, q, params)
            c3 = c3 + mul_div_c2(q, c2, params)  # reads the new c2
            c1 = c1 + q
            yield TowerBundle(r, c1, c2, c3)

    monkeypatch.setattr(verify, "iter_tower", mutant)
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


def test_serre_dual_plus_f_is_caught(monkeypatch, capsys):
    original = verify.serre_dual
    monkeypatch.setattr(verify, "serre_dual", lambda p, d: original(p, d) + F)
    assert "cohomology-serre-duality" in _cli_failures((0, 1, 3), capsys)


def test_h1_on_the_vanishing_strip_is_caught(monkeypatch, capsys):
    original = verify.h_scroll

    def mutant(params, div):
        if div.x == -1 and div.z == 0:
            return cohomology.CohomologyVector(0, 1, 0, 0)
        return original(params, div)

    monkeypatch.setattr(verify, "h_scroll", mutant)
    assert "cohomology-vanishing-strip" in _cli_failures((0, 1, 3), capsys)


def test_cohomology_on_the_y_strip_is_caught(monkeypatch, capsys):
    # chi, Serre duality and the degree bounds all hold for this mutant
    original = verify.h_scroll

    def mutant(params, div):
        if div.y == -1 and div.x != -1:
            return cohomology.CohomologyVector(0, 1, 1, 0)
        return original(params, div)

    monkeypatch.setattr(verify, "h_scroll", mutant)
    assert _cli_failures((0, 1, 3), capsys) == {"cohomology-vanishing-strip"}


def test_h3_of_an_effective_class_is_caught(monkeypatch, capsys):
    original = verify.h_scroll

    def mutant(params, div):
        vec = original(params, div)
        return vec._replace(h3=1) if div.as_tuple() == (1, 1, 1) else vec

    monkeypatch.setattr(verify, "h_scroll", mutant)
    assert "cohomology-degree-bounds" in _cli_failures((0, 1, 3), capsys)


@pytest.fixture
def fresh_h_cache():
    """Empty the h_scroll cache before and after, so that no mutated vector outlives the test."""
    clear = cohomology._h_scroll.cache_clear
    clear()
    yield
    clear()


def test_h_falling_past_the_upper_wall_is_caught(fresh_h_cache, monkeypatch, capsys):
    # h^0 and h^1 of the line (3, 3) both gain hi + 10**6 - z past its upper wall hi:
    # chi, Serre duality and every swept value hold, only the outward slope is wrong
    original = cohomology._h_scroll

    def mutant(a, b, x, y, z):
        vec = original(a, b, x, y, z)
        hi = 3 * b + 3 * a - 1
        if (x, y) != (3, 3) or z < hi:
            return vec
        t = hi + 10**6 - z
        return vec._replace(h0=vec.h0 + t, h1=vec.h1 + t)

    mutant.cache_clear = original.cache_clear  # a new family clears by the global name
    monkeypatch.setattr(cohomology, "_h_scroll", mutant)
    assert _cli_failures((1, 2, 4), capsys) == {
        "cohomology-degree-bounds", "cohomology-degree-bounds-representative-box"
    }


def test_chi_defect_beyond_the_old_box_is_caught(monkeypatch, capsys):
    # (5, 5, 24) is on the upper wall of its line for (a, b) = (2, 3), outside the
    # box |z| <= c + 4 = 10 of the representative triple (2, 3, 6)
    chi = verify.chi_closed_form
    monkeypatch.setattr(verify, "chi_closed_form",
                        lambda p, d: chi(p, d) + (d.as_tuple() == (5, 5, 24)))
    assert _cli_failures((2, 3, 6), capsys) == {"cohomology-chi-oracle-representative-box"}


_CLIPPED_SERIES = cohomology._clipped_series


def _series_of_m_plus_one(c, step, n):
    """_clipped_series with m(m + 1)/2 in place of m(m - 1)/2."""
    if c <= 0:
        return 0
    m = n if step == 0 else min(n, -(-c // step))
    return m * c - step * (m * (m + 1) // 2)


def _scroll_mutant(js, shift):
    """_h_scroll, uncached, summing over j in js(x) with the j-th term at z - shift(j, b)."""

    def mutant(a, b, x, y, z):
        if x < 0:
            return mutant(a, b, -2 - x, -2 - y, -(a + b + 2) - z).reversed()
        h = [0, 0, 0]
        for j in js(x):
            h = [u + v for u, v in zip(h, cohomology._h_surface(a, y, z - shift(j, b)))]
        return cohomology.CohomologyVector(*h, 0)

    return mutant


@pytest.mark.parametrize("name, replacement", [
    ("_clipped_series", lambda c, step, n: _CLIPPED_SERIES(c, step, n + 1)),
    ("_clipped_series", _series_of_m_plus_one),
    ("_h_scroll", _scroll_mutant(range, lambda j, b: j * b)),
    ("_h_scroll", _scroll_mutant(lambda x: range(x + 1), lambda j, b: j * b + (j >= 2))),
], ids=["series-one-term-too-many", "series-m-plus-one", "j-loop-one-short", "step-b-plus-one-at-j-2"])
def test_structural_cohomology_mutant_is_caught(
    fresh_h_cache, monkeypatch, capsys, name, replacement
):
    monkeypatch.setattr(cohomology, name, replacement)
    assert "cohomology-chi-oracle" in _cli_failures((1, 2, 4), capsys)


def test_ulrich_dual_plus_f_fails_rows_not_the_run(monkeypatch, capsys):
    original = verify.ulrich_dual
    monkeypatch.setattr(
        verify, "ulrich_dual",
        lambda p, d: original(p, d) + F if p == ScrollParams(0, 1, 3) else original(p, d),
    )
    assert {"ext-involution-orbits", "ulrich-duality-closure"} <= _cli_failures((0, 1, 3), capsys)


def test_bundle_dropped_at_swapped_triple_fails_rows_not_the_run(monkeypatch, capsys):
    original = verify.classify_ulrich_line_bundles
    monkeypatch.setattr(
        verify, "classify_ulrich_line_bundles",
        lambda p: original(p)[:-1] if p.a > p.b else original(p),
    )
    assert "ext-involution-orbits" in _cli_failures((0, 1, 3), capsys)


def test_cohomology_rows_report_their_own_first_failure(monkeypatch):
    chi, dual = verify.chi_closed_form, verify.serre_dual
    monkeypatch.setattr(
        verify, "chi_closed_form", lambda p, d: chi(p, d) + (d.as_tuple() == (0, 0, 0))
    )
    monkeypatch.setattr(
        verify, "serre_dual", lambda p, d: dual(p, d) + F if d.as_tuple() == (1, 1, 1) else dual(p, d)
    )
    col = verify._Collector(0, 1, 3)
    verify._cohomology_checks(col, verify.cohomology_failures(ScrollParams(0, 1, 3)))
    rows = {r.check: r for r in col.results}
    assert (rows["cohomology-chi-oracle"].ok, rows["cohomology-chi-oracle"].detail) == (
        False, "chi mismatch at (0, 0, 0)"
    )
    assert (rows["cohomology-serre-duality"].ok, rows["cohomology-serre-duality"].detail) == (
        False, "serre mismatch at (1, 1, 1)"
    )
    assert rows["cohomology-vanishing-strip"].ok and rows["cohomology-degree-bounds"].ok
