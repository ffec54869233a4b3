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
from scroll_ulrich import chow, cohomology, extensions, tower, ulrich
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
    # a and b exchanged in the last factor of the one Riemann-Roch polynomial
    _patch_everywhere(
        monkeypatch, cohomology.twice_chi,
        lambda a, b, x, y, z: (x + 1) * (y + 1) * (2 * z + 2 - a * x - b * y),
    )
    row = _status((0, 1, 3), "cohomology-chi-oracle")
    assert not row.ok


def test_sieve_with_2z_off_by_one_is_caught(monkeypatch, capsys):
    # the sieve of is_ulrich_line reads 2z + 1 for 2z; the certificate's own name is intact
    original = ulrich.twice_chi
    monkeypatch.setattr(
        ulrich, "twice_chi", lambda a, b, x, y, z: original(a, b, x, y, z) + (x + 1) * (y + 1)
    )
    assert {"ulrich-count", "ulrich-closed-forms"} <= _cli_failures((0, 1, 3), capsys)


def test_factored_riemann_roch_with_ay_sign_flipped_is_caught(monkeypatch, capsys):
    # the library's one form, read by the sieve and by chi alike
    _patch_everywhere(
        monkeypatch, cohomology.twice_chi,
        lambda a, b, x, y, z: (x + 1) * (y + 1) * (2 * z + 2 - b * x + a * y),
    )
    assert "cohomology-chi-oracle" in _cli_failures((1, 2, 4), capsys)


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
    """Replace `original` under every scroll_ulrich module name bound to it.

    Fails when no module binds it: a control that patches nothing mutates nothing.
    """
    patched = False
    for name, module in list(sys.modules.items()):
        if name.startswith("scroll_ulrich") and (
            getattr(module, original.__name__, None) is original
        ):
            monkeypatch.setattr(module, original.__name__, replacement)
            patched = True
    if not patched:
        pytest.fail(f"no scroll_ulrich module binds {original.__name__} to {original!r}")


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


def test_cohomology_sweep_evaluates_each_class_once(monkeypatch):
    # a box point comes back as another point's Serre image and as its line's wall
    calls = []
    original = verify.h_scroll

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    monkeypatch.setattr(verify, "h_scroll", counted)
    assert verify.cohomology_failures(ScrollParams(2, 3, 6)) == []
    assert len(calls) == len(set(calls)) == 2154


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
    assert "cohomology-chi-oracle" in _cli_failures((0, 1, 3), capsys)


def test_riemann_roch_plus_one_at_x_minus_two_is_caught(monkeypatch, capsys):
    # one Riemann-Roch body, chi: the tower's pair sums and the rank-two chi(End)
    # read it by that name, verify's box through chi_closed_form.  x = -2 holds
    # N^U - N, so the tower and case-1 rows fail, and so does the box.
    original = cohomology.chi
    _patch_everywhere(monkeypatch, original, lambda p, d: original(p, d) + (d.x == -2))
    assert {"tower-closed-forms", "endo-case1-chi", "cohomology-chi-oracle"} <= _cli_failures(
        (0, 1, 3), capsys
    )


def _records_reading(monkeypatch, pick):
    """enumerate_cases with each record built from the vectors `pick(sub - quot, quot - sub)`."""
    original = extensions.build_extension_record

    def miswired(params, sub, quot, sub_tag, quot_tag, sub_minus_quot, quot_minus_sub):
        return original(params, sub, quot, sub_tag, quot_tag,
                        *pick(sub_minus_quot, quot_minus_sub))

    monkeypatch.setattr(extensions, "build_extension_record", miswired)


def test_ext_dim_read_off_quot_minus_sub_is_caught(monkeypatch, capsys):
    # the records read ext^1 off the reversed difference class quot - sub
    _records_reading(monkeypatch, lambda forward, backward: (backward, forward))
    assert {"ext-N-NU", "ext-NU-N"} <= _cli_failures((1, 2, 4), capsys)


def test_h2_endo_read_off_sub_minus_quot_is_caught(monkeypatch, capsys):
    # h^2(End F) read off the vector of sub - quot, whose h^2 the guard just found zero
    _records_reading(monkeypatch, lambda forward, backward: (forward, forward))
    assert main(["verify", "--a", "0", "--b", "2..3"]) == EXIT_VERIFY_FAILED
    checks = next(t for t in json.loads(capsys.readouterr().out)["tables"] if t["name"] == "checks")
    failing = {tuple(row[:3]) for row in checks["rows"]
               if row[3] == "endo-case1-h2" and row[4] == "FAIL"}
    assert failing == {(0, b, c) for b in (2, 3) for c in range(b + 1, b + 7)}


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


def test_h_falling_past_the_upper_wall_is_caught(monkeypatch, capsys):
    # h^0 and h^1 of the line (3, 3) both gain hi + 10**6 - z past its upper wall hi,
    # and their Serre images K_X - D read the same defect reversed: chi, Serre
    # duality and every swept value hold, only the outward slope is wrong
    original = cohomology._h_scroll

    def mutated(a, b, x, y, z):
        vec = original(a, b, x, y, z)
        hi = 3 * b + 3 * a - 1
        if (x, y) != (3, 3) or z < hi:
            return vec
        t = hi + 10**6 - z
        return vec._replace(h0=vec.h0 + t, h1=vec.h1 + t)

    def mutant(a, b, x, y, z):
        if x < 0:
            return mutated(a, b, -2 - x, -2 - y, -(a + b + 2) - z).reversed()
        return mutated(a, b, x, y, z)

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


def _surface_sum(a, alpha, beta):
    """h^i(F_a, O(alpha, beta)) for alpha != -1, summed term by term over P^1."""
    if alpha < 0:  # Serre duality with K_{F_a} = (-2, -a-2)
        d0, d1, d2 = _surface_sum(a, -2 - alpha, -a - 2 - beta)
        return (d2, d1, d0)
    degs = [beta - k * a for k in range(alpha + 1)]
    return (sum(max(d + 1, 0) for d in degs), sum(max(-d - 1, 0) for d in degs), 0)


def _scroll_mutant(js, shift):
    """_h_scroll, summing over j in js(x) with the j-th term at z - shift(j, b)."""

    def mutant(a, b, x, y, z):
        if x < 0:
            return mutant(a, b, -2 - x, -2 - y, -(a + b + 2) - z).reversed()
        h = [0, 0, 0]
        for j in js(x):
            h = [u + v for u, v in zip(h, _surface_sum(a, y, z - shift(j, b)))]
        return cohomology.CohomologyVector(*h, 0)

    return mutant


@pytest.mark.parametrize("name, replacement", [
    ("_clipped_series", lambda c, step, n: _CLIPPED_SERIES(c, step, n + 1)),
    ("_clipped_series", _series_of_m_plus_one),
    ("_h_scroll", _scroll_mutant(range, lambda j, b: j * b)),
    ("_h_scroll", _scroll_mutant(lambda x: range(x + 1), lambda j, b: j * b + (j >= 2))),
], ids=["series-one-term-too-many", "series-m-plus-one", "j-loop-one-short", "step-b-plus-one-at-j-2"])
def test_structural_cohomology_mutant_is_caught(monkeypatch, capsys, name, replacement):
    monkeypatch.setattr(cohomology, name, replacement)
    assert "cohomology-chi-oracle" in _cli_failures((1, 2, 4), capsys)


def test_ulrich_dual_plus_f_fails_rows_not_the_run(monkeypatch, capsys):
    # the classifier's dual column and verify's transport checks read the same mutant
    original = ulrich.ulrich_dual
    _patch_everywhere(
        monkeypatch, original,
        lambda p, d: original(p, d) + F if p == ScrollParams(0, 1, 3) else original(p, d),
    )
    failures = _cli_failures((0, 1, 3), capsys)
    assert {"ext-involution-orbits", "ulrich-duality-closure", "ulrich-dual-tag"} <= failures


def test_bundle_dropped_at_swapped_triple_fails_rows_not_the_run(monkeypatch, capsys):
    original = verify.classify_ulrich_line_bundles
    monkeypatch.setattr(
        verify, "classify_ulrich_line_bundles",
        lambda p: original(p)[:-1] if p.a > p.b else original(p),
    )
    assert {"ext-involution-orbits", "ulrich-swap-invariance"} <= _cli_failures((0, 1, 3), capsys)


def test_missing_record_fails_its_rows_not_the_run(monkeypatch, capsys):
    # at a >= 2 the h^2 of case 1 is refused (None); a missing record must not read as that
    original = verify.enumerate_cases

    def dropped(params, bundles):
        records = original(params, bundles)
        if params != ScrollParams(2, 3, 6):
            return records
        return [r for r in records if (r.sub_tag, r.quot_tag) != ("N_dual", "N")]

    monkeypatch.setattr(verify, "enumerate_cases", dropped)
    assert {
        "ext-N-NU", "chern-case1-c1", "obstruction-case1", "twist-case1-c2", "endo-case1-chi",
        "endo-case1-h2-guard", "endo-dual-pairs-nonpositive", "moduli-case1-special",
        "moduli-smooth-h2",
    } <= _cli_failures((2, 3, 6), capsys)


def test_case_without_records_fails_its_moduli_rows(monkeypatch, capsys):
    # the predictions are those of the records: a dropped case is not re-derived
    original = verify.enumerate_cases

    def dropped(params, bundles):
        records = original(params, bundles)
        if params != ScrollParams(0, 1, 3):
            return records
        return [r for r in records if r.case_id != 2]

    monkeypatch.setattr(verify, "enumerate_cases", dropped)
    assert {"moduli-case2", "moduli-case2-special", "moduli-smooth-h2"} <= _cli_failures(
        (0, 1, 3), capsys
    )


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


# One-line slips in the records that `classify` and `ext-table` print: one field of a
# Rank2ExtensionRecord, or the dual of an UlrichLineBundleRecord, each with the rows of
# (0, 1, 3) that must fail.
_MISWIRED_FIELDS = {
    "ext-dim-reversed": ("ext_dim", lambda p, r: cohomology.h_scroll(p, r.quotient - r.sub).h1,
                         {"ext-L-LU", "ext-LU-L"}),
    "chi-endo-plus-one": ("chi_endo", lambda p, r: r.chi_endo + 1,
                          {"endo-case1-chi", "endo-case2-chi"}),
    "c2-twisted-untwisted": ("c2_twisted", lambda p, r: r.c2,
                             {"twist-case1-c2", "twist-case2-c2"}),
    "obstruction-untwisted": ("obstruction", lambda p, r: ulrich.pullback_obstruction_report(r.c2),
                              {"obstruction-case2", "obstruction-case3"}),
    "h2-endo-plus-one": ("h2_endo", lambda p, r: None if r.h2_endo is None else r.h2_endo + 1,
                         {"endo-case1-h2", "endo-case2-h2"}),
    "special-negated": ("special", lambda p, r: not r.special,
                        {"moduli-case1-special", "moduli-case2-special", "moduli-case3"}),
    "dual-is-itself": ("special_pairing", lambda p, r: r.divisor,
                       {"ulrich-dual-involution", "ulrich-dual-tag"}),
}


@pytest.mark.parametrize("field, value, rows", _MISWIRED_FIELDS.values(), ids=_MISWIRED_FIELDS)
def test_miswired_record_field_is_caught(monkeypatch, capsys, field, value, rows):
    if field == "special_pairing":
        original = ulrich.classify_ulrich_line_bundles

        def miswired(params):
            return [r._replace(special_pairing=value(params, r)) for r in original(params)]
    else:
        original = extensions.build_extension_record

        def miswired(params, *args):
            r = original(params, *args)
            return r._replace(**{field: value(params, r)})

    _patch_everywhere(monkeypatch, original, miswired)
    assert rows <= _cli_failures((0, 1, 3), capsys)


def test_chi_endo_plus_one_fails_the_moduli_dimensions(monkeypatch, capsys):
    # the chi sum one too high against the first quotient: chi(End F) + 1 for every F
    original = cohomology.chi_filtered
    _patch_everywhere(monkeypatch, original, lambda p, qs, t: original(p, qs, t) + (t == qs[0]))
    assert {"moduli-case1", "moduli-case2"} <= _cli_failures((0, 1, 3), capsys)


@pytest.mark.parametrize("cell", [(0, 0, 2), (1, 0, 3)])
def test_case7_chi_endo_minus_one_is_caught(monkeypatch, capsys, cell):
    # chi(End F) lowered for the M pair alone: case 7, at b = 0
    original = cohomology.chi_filtered
    named = ulrich.named_line_bundles

    def mutant(p, qs, t):
        forms = named(p)
        m_pair = set(qs) == {forms.get("M"), forms.get("M_dual")}
        return original(p, qs, t) - (m_pair and t == qs[0])

    _patch_everywhere(monkeypatch, original, mutant)
    assert {"endo-case7-chi", "moduli-case7"} <= _cli_failures(cell, capsys)


def test_fold_with_a_quotient_repeated_is_caught(monkeypatch, capsys):
    # the Whitney fold reads its first quotient twice and drops the last
    original = chow.whitney
    _patch_everywhere(monkeypatch, original,
                      lambda params, qs: original(params, (qs[0], *qs[:-1])))
    assert "tower-closed-forms" in _cli_failures((0, 1, 3), capsys)


def test_pair_sum_without_its_diagonal_is_caught(monkeypatch, capsys):
    # the chi sum skips the quotients equal to the line: no chi(O_X) terms in chi(End)
    original = cohomology.chi_filtered
    _patch_everywhere(monkeypatch, original,
                      lambda p, qs, t: original(p, [q for q in qs if q != t], t))
    assert "endo-case1-chi" in _cli_failures((0, 1, 3), capsys)


@pytest.mark.parametrize("c", [1, 4, 7])
def test_case9_special_negated_is_caught(monkeypatch, capsys, c):
    # case 9 is its own swap image and case 10 its dual: moduli-case9 reads it in
    # closed form, and the Ulrich-dual transport against case 10
    original = extensions.build_extension_record

    def mutant(params, *args):
        r = original(params, *args)
        return r._replace(special=not r.special) if r.case_id == 9 else r

    _patch_everywhere(monkeypatch, original, mutant)
    assert _cli_failures((0, 0, c), capsys) == {"moduli-case9", "ext-involution-orbits"}


XI_C0 = Codim2Class(1, 0, 0)  # the class xi.C0: adds one to p


def _flip_from_base_a(r):
    flags = r.obstruction
    return r._replace(obstruction=flags._replace(from_base_a=not flags.from_base_a))


# One field slipped on the records of one case (ROADMAP item 16's probe), each with
# its own perturbation: no closed-form row reads it there, so only the transport
# along the involutions can.
_END_FIELD_SLIPS = {
    "case3-chi-endo": (3, lambda r: r._replace(chi_endo=r.chi_endo + 1), (0, 1, 3)),
    "case12-chi-endo": (12, lambda r: r._replace(chi_endo=r.chi_endo + 1), (1, 0, 3)),
    "case13-h2-endo": (13, lambda r: r._replace(h2_endo=r.h2_endo + 1), (1, 0, 3)),
    "case3-c2-twisted": (3, lambda r: r._replace(c2_twisted=r.c2_twisted + XI_C0), (0, 1, 3)),
    "case14-from-base-a": (14, _flip_from_base_a, (1, 0, 3)),
}


@pytest.mark.parametrize("case, slip, cell", _END_FIELD_SLIPS.values(), ids=_END_FIELD_SLIPS)
def test_end_field_plus_one_on_one_case_fails_the_transport(monkeypatch, capsys, case, slip, cell):
    original = extensions.build_extension_record

    def mutant(params, *args):
        r = original(params, *args)
        return slip(r) if r.case_id == case else r

    _patch_everywhere(monkeypatch, original, mutant)
    assert _cli_failures(cell, capsys) == {"ext-involution-orbits"}


def _perturbations(r):
    """Each value field of the record r perturbed alone: +1, +F, +xi.C0 or a flip."""
    for field in ("ext_dim", "c1", "c2", "chi_endo", "h2_endo", "special",
                  "c1_twisted", "c2_twisted"):
        value = getattr(r, field)
        if isinstance(value, bool):
            value = not value
        elif value is None:  # a refused h2_endo
            value = 0
        elif isinstance(value, int):
            value += 1
        else:
            value += F if isinstance(value, DivisorClass) else XI_C0
        yield field, r._replace(**{field: value})
    flags = r.obstruction
    yield "from_base_a", _flip_from_base_a(r)
    yield "from_base_b", r._replace(obstruction=flags._replace(from_base_b=not flags.from_base_b))


def test_transport_reports_every_field_perturbation():
    # 58 records, 10 value fields each; ROADMAP item 16: every field has an oracle
    missed, n = [], 0
    for cell in [(0, 0, 3), (0, 1, 3), (1, 2, 4), (2, 3, 7), (0, 3, 5)]:
        p = ScrollParams(*cell)
        records = enumerate_cases(p, classify_ulrich_line_bundles(p))
        q = p.swapped()
        swapped = enumerate_cases(q, classify_ulrich_line_bundles(q))
        for i, r in enumerate(records):
            for field, slipped in _perturbations(r):
                n += 1
                mutated = records[:i] + [slipped] + records[i + 1:]
                if not any(verify._check_involution_orbits(
                        p, mutated, mutated if p.a == p.b else swapped)):
                    missed.append((cell, r.case_id, field))
    assert (n, missed) == (580, [])


def test_transport_duals_each_bundle_once(monkeypatch):
    # K_X + 4h - D once per distinct divisor and cell, not twice per record
    calls = []
    original = verify.ulrich_dual

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    monkeypatch.setattr(verify, "ulrich_dual", counted)
    p = ScrollParams(0, 0, 3)
    records = enumerate_cases(p, classify_ulrich_line_bundles(p))
    assert list(verify._check_involution_orbits(p, records, records)) == []
    assert len(records) == 30 and len(calls) == len(set(calls)) == 6


def test_tower_hypothesis_widened_is_caught(monkeypatch, capsys):
    # b <= 2 admits (0, 2), (1, 2) and (2, 2), where the h^1 seeds are not both 3
    _patch_everywhere(monkeypatch, tower.in_tower_hypothesis,
                      lambda p: 0 <= p.a <= p.b <= 2)
    assert main(["verify", "--a", "0", "--b", "1", "--c", "3"]) == EXIT_VERIFY_FAILED
    report = json.loads(capsys.readouterr().out)
    rows = next(t for t in report["tables"] if t["name"] == "checks")["rows"]
    assert [tuple(row[:4]) for row in rows] == [
        (a, b, a + b + 1, "tower-hypothesis") for a, b in [(0, 2), (1, 2), (2, 2)]
    ]


def test_patching_an_unbound_name_fails_the_control(monkeypatch):
    # a wrapper under another name is bound nowhere: the control must not pass silently
    original = extensions.build_extension_record

    def renamed(params, *args):
        return original(params, *args)

    with pytest.raises(pytest.fail.Exception, match="binds renamed"):
        _patch_everywhere(monkeypatch, renamed, original)


def test_smoothness_claimed_where_h2_endo_is_nonzero_is_caught(monkeypatch, capsys):
    # at (0, 2, c) case 1 has h^2(End F) = b - 1 = 1, so it may not be claimed smooth
    original = verify.moduli_predictions

    def mutant(params, records):
        return [p._replace(generically_smooth=True) if (params.a, params.b, p.case_id) == (0, 2, 1)
                else p for p in original(params, records)]

    monkeypatch.setattr(verify, "moduli_predictions", mutant)
    assert "moduli-smooth-h2" in _cli_failures((0, 2, 4), capsys)


def test_point_case_of_positive_dimension_is_caught(monkeypatch, capsys):
    original = verify.moduli_predictions

    def mutant(params, records):
        return [p._replace(dimension=1) if p.case_id == 3 else p
                for p in original(params, records)]

    monkeypatch.setattr(verify, "moduli_predictions", mutant)
    assert "moduli-case3" in _cli_failures((0, 1, 3), capsys)


def test_failing_classification_rows_keep_their_detail(monkeypatch):
    cell = (0, 1, 3)
    p = ScrollParams(*cell)
    n = ulrich.named_line_bundles(p)["N"]
    original = ulrich.is_ulrich_line
    monkeypatch.setattr(ulrich, "is_ulrich_line", lambda q, d: original(q, d) or d == n + F)
    classify = verify.classify_ulrich_line_bundles
    monkeypatch.setattr(verify, "classify_ulrich_line_bundles",
                        lambda q: classify(q)[:-1] if q.a > q.b else classify(q))
    rows = {r.check: r for r in _cell_checks(cell) if not r.ok}
    extra = (n + F).as_tuple()
    assert rows["ulrich-no-unnamed"].detail == str([extra])
    assert rows["ulrich-duality-closure"].detail == f"dual of {extra} missing"
    assert rows["ulrich-swap-invariance"].detail.endswith("not Ulrich after swap")


def test_passing_rows_carry_no_detail(capsys):
    assert main(["verify", "--a", "0..1", "--b", "0..1", "--normalize", "--all"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    rows = next(t for t in report["tables"] if t["name"] == "checks")["rows"]
    assert [row for row in rows if row[4] == "pass" and row[5]] == []


@pytest.mark.parametrize("field, check", [("d", "chow-degree"), ("n", "chow-ambient-dim")])
def test_degree_plus_one_is_caught(field, check, monkeypatch, capsys):
    original = chow.numerical_invariants

    def mutant(params):
        n, d, g = original(params)
        return (n + 1, d, g) if field == "n" else (n, d + 1, g)

    _patch_everywhere(monkeypatch, original, mutant)
    assert check in _cli_failures((0, 1, 3), capsys)
