"""Acceptance suite: the ten exact verification criteria, one per test.

Every expected value is an integer identity; tolerances are exact equality.
Each test prints a single pass/fail line (visible with -s or -rA).
"""

import time
from fractions import Fraction

import pytest

from scroll_ulrich import (
    DivisorClass,
    ScrollParams,
    base_swap,
    chi,
    chi_closed_form,
    chi_endo_tower,
    chi_filtered,
    chi_tower_vs_line,
    classify_ulrich_line_bundles,
    enumerate_cases,
    h_scroll,
    instanton_admissible,
    is_ulrich_line,
    iter_tower,
    moduli_dim_gap,
    moduli_dim_tower,
    moduli_predictions,
    named_line_bundles,
    numerical_invariants,
    serre_dual,
    slope,
    tower_h1_recursion,
    triple,
    ulrich_dual,
    whitney,
)
from scroll_ulrich.tower import tower_pair
from scroll_ulrich.verify import _closed_c1, _closed_c2, _closed_c3
from scroll_ulrich.ulrich import expected_count

GRID = [
    ScrollParams(a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]
REPRESENTATIVES = [
    ScrollParams(0, 0, 1),
    ScrollParams(0, 1, 2),
    ScrollParams(0, 2, 4),
    ScrollParams(1, 1, 3),
    ScrollParams(1, 2, 4),
    ScrollParams(2, 3, 6),
]
TOWER_GRID = [
    ScrollParams(a, b, c)
    for a in (0, 1)
    for b in range(a, 2)
    for c in range(a + b + 1, a + b + 7)
]


def report(num: int, label: str, ok: bool):
    print(f"acceptance {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_01_classification():
    t0 = time.monotonic()
    ok = True
    for p in GRID:
        records = classify_ulrich_line_bundles(p)
        forms = named_line_bundles(p)
        ok &= len(records) == expected_count(p)
        ok &= {r.tag: r.divisor for r in records} == forms
        a, b = p.a, p.b
        want = 6 if a == b == 0 else 4 if a == 0 else 2
        ok &= len(records) == want
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, f"classification grid in {elapsed:.2f}s", ok)


def test_criterion_02_chow_identities():
    ok = True
    for p in GRID:
        h = p.h
        a, b, c = p.a, p.b, p.c
        ok &= triple(h, h, h, p) == 3 * (2 * c - a - b)
        ok &= triple(p.canonical + 2 * h, h, h, p) == 2 * (2 * c - a - b - 1) - 2
    report(2, "degree and sectional-genus identities", ok)


def test_criterion_03_cohomology_oracle_box():
    t0 = time.monotonic()
    ok = True
    for p in REPRESENTATIVES:
        zmax = 3 * p.c + 6
        for x in range(-5, 6):
            for y in range(-5, 6):
                for z in range(-zmax, zmax + 1):
                    d = DivisorClass(x, y, z)
                    vec = h_scroll(p, d)
                    ok &= vec.chi == chi_closed_form(p, d)
                    ok &= vec.reversed() == h_scroll(p, serre_dual(p, d))
                if not ok:
                    break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(3, f"chi oracle + Serre reversal box in {elapsed:.2f}s", ok)


def test_criterion_04_ext_tables():
    ok = True
    for p in GRID:
        a, b, c = p.a, p.b, p.c
        f = named_line_bundles(p)
        ok &= h_scroll(p, f["N_dual"] - f["N"]).h1 == (a + 2 if a > 0 else 3)
        ok &= h_scroll(p, f["N"] - f["N_dual"]).h1 == (b + 2 if b > 0 else 3)
        if a == 0:
            ok &= h_scroll(p, f["L_dual"] - f["L"]).h1 == 3 * (2 * c - b - 1)
            ok &= h_scroll(p, f["L"] - f["L_dual"]).h1 == 2 * c - b + 1
            ok &= h_scroll(p, f["L"] - f["N"]).h1 == 0
            want = 2 * c - b - 2 if c > b + 1 else c - 1
            ok &= h_scroll(p, f["N"] - f["L"]).h1 == want
            ok &= h_scroll(p, f["L"] - f["N_dual"]).h1 == 2 * c - b + 2
        if a == 0 and b == 0:
            ok &= h_scroll(p, f["M"] - f["L"]).h1 == 8 * c - 4
            ok &= h_scroll(p, f["M_dual"] - f["L"]).h1 == 0
    report(4, "ext^1 closed forms on all applicable cells", ok)


def test_criterion_05_rank2_chern_and_obstructions():
    ok = True
    for p in GRID:
        a, b, c = p.a, p.b, p.c
        f = named_line_bundles(p)

        def chern_ok(sub, quot, c1_want, c2_want, obs_a, obs_b):
            # the Whitney fold over the quotients, and over their twists by -h for F(-h)
            *_, (c1, c2, _) = whitney(p, (f[sub], f[quot]))
            good = c1.as_tuple() == c1_want and c2.as_tuple() == c2_want
            from scroll_ulrich import pullback_obstruction_report

            *_, (_, c2_tw, _) = whitney(p, (f[sub] - p.h, f[quot] - p.h))
            rep = pullback_obstruction_report(c2_tw)
            return good and (rep.from_base_a, rep.from_base_b) == (obs_a, obs_b)

        ok &= chern_ok("N_dual", "N",
                       (2, 2, 4 * c - b - a - 2),
                       (4, 2 * (2 * c - b - 1), 2 * (2 * c - a - 1)), True, True)
        if a == 0:
            ok &= chern_ok("L_dual", "L",
                           (2, 2, 4 * c - b - 2),
                           (2, 2 * (2 * c - b - 1), 2 * (3 * c - b - 1)), False, True)
            ok &= chern_ok("N", "L",
                           (3, 0, 5 * c - b - 2),
                           (0, 8 * c - 4 * b - 3, 0), True, True)
            ok &= chern_ok("L", "N_dual",
                           (1, 2, 5 * c - 2 * b - 2),
                           (2, 2 * c - b - 1, 2 * (3 * c - b - 1)), True, True)
            ok &= chern_ok("N", "L_dual",
                           (3, 2, 3 * c - 2),
                           (4, 4 * c - 2 * b - 3, 2 * (2 * c - 1)), True, True)
            ok &= chern_ok("L_dual", "N_dual",
                           (1, 4, 3 * c - b - 2),
                           (2, 2 * c - b - 1, 2 * (3 * c - b - 2)), True, True)
        if a == 0 and b == 0:
            ok &= chern_ok("M_dual", "M",
                           (2, 2, 2 * (2 * c - 1)),
                           (2, 2 * (3 * c - 1), 2 * (2 * c - 1)), True, False)
            ok &= chern_ok("M", "L",
                           (3, 1, 2 * (2 * c - 1)),
                           (1, 7 * c - 3, 3 * c - 1), True, True)
    report(5, "rank-2 Chern displays and pullback verdicts", ok)


def test_criterion_06_endomorphism_values():
    ok = True
    for p in GRID:
        a, b, c = p.a, p.b, p.c
        f = named_line_bundles(p)
        NU, N = f["N_dual"], f["N"]
        # h^2(End F) is the h2_endo field of the record, None where it is refused
        h2 = {(r.sub_tag, r.quot_tag): r.h2_endo
              for r in enumerate_cases(p, classify_ulrich_line_bundles(p))}

        def chi_endo(sub, quot):  # chi is additive over the filtration by (sub, quot)
            return sum(chi_filtered(p, (sub, quot), t) for t in (sub, quot))

        alpha = b + 2 if b >= 1 else 3
        delta = b - 1 if b >= 2 else 0
        if a == 0:
            ok &= chi_endo(NU, N) == delta - alpha - 1
            ok &= h2["N_dual", "N"] == delta
            LU, L = f["L_dual"], f["L"]
            ok &= chi_endo(LU, L) == 4 - 4 * (2 * c - b)
            ok &= h2["L_dual", "L"] == 0
        else:
            ok &= chi_endo(NU, N) == -4
            if a >= 2:
                ok &= ("N_dual", "N") in h2 and h2["N_dual", "N"] is None
    report(6, "chi / h^2 endomorphism values", ok)


def _predictions(p):
    records = enumerate_cases(p, classify_ulrich_line_bundles(p))
    return {pred.case_id: pred for pred in moduli_predictions(p, records)}


def test_criterion_07_moduli_predictions():
    ok = True
    for p in GRID:
        a, b, c = p.a, p.b, p.c
        pred = _predictions(p)
        p1 = pred[1]
        if max(a, b) <= 1:
            ok &= (p1.dimension_kind, p1.dimension, p1.generically_smooth) == ("exact", 5, True)
        else:
            ok &= (p1.dimension_kind, p1.dimension) == ("at_least_if_stable", 5)
            ok &= "otherwise" in p1.branch_note  # both branches carried
        if a == 0:
            p2 = pred[2]
            ok &= (p2.dimension_kind, p2.dimension, p2.generically_smooth, p2.special) == (
                "exact", 4 * (2 * c - b) - 3, True, True,
            )
            ok &= pred[3].dimension_kind == "point"
            ok &= pred[4].dimension_kind == "point"
        if a == 0 and b == 0:
            ok &= pred[8].dimension_kind == "point"
    report(7, "moduli dimensions, points and conditional branches", ok)


def test_criterion_08_tower():
    t0 = time.monotonic()
    ok = True
    for p in TOWER_GRID:
        n_dual, n = tower_pair(p)
        for t in iter_tower(p, 12):
            r = t.rank
            q_next, q_last = (n, n_dual) if r % 2 else (n_dual, n)
            ok &= (t.c1, t.c2, t.c3) == (_closed_c1(p, r), _closed_c2(p, r), _closed_c3(p, r))
            ok &= chi_tower_vs_line(p, r, q_next) == (-r - 2 if r % 2 else -r)
            ok &= chi_tower_vs_line(p, r, q_last) == (-r + 2 if r % 2 else -r)
            ok &= chi_endo_tower(p, r) == (-r * r + 2 if r % 2 else -r * r)
            ok &= moduli_dim_tower(r) == (r * r - 1 if r % 2 else r * r + 1)
            if r >= 2:
                ok &= moduli_dim_gap(r) == (r + 1 if r % 2 == 0 else r - 2) > 0
        ok &= r == 12  # every rank was yielded
        seq = tower_h1_recursion(p, 12)
        ok &= seq == [r + 2 if r % 2 else r + 1 for r in range(1, 13)]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(8, f"tower recursion vs closed forms in {elapsed:.2f}s", ok)


def test_criterion_09_instanton():
    ok = True
    for c in range(1, 7):
        triples = instanton_admissible(c)
        ok &= all(t.k1 + t.k2 + c * t.k3 == 2 * c for t in triples)
        betas = [t for t in triples if t.case == "beta"]
        gammas = [t for t in triples if t.case == "gamma"]
        ok &= all(t.predicted_dim == 4 * (c + 1) - 3 for t in betas) and len(betas) == c + 1
        ok &= all(t.predicted_dim == 8 * c - 3 for t in gammas) and len(gammas) == 2 * c + 1
    # at c = 1 both families predict 5, matching the case-1 component
    ones = instanton_admissible(1)
    p1 = _predictions(ScrollParams(0, 0, 1))[1]
    ok &= all(t.predicted_dim == 5 for t in ones)
    ok &= (p1.dimension_kind, p1.dimension) == ("exact", 5)
    report(9, "instanton admissibility and dimensions", ok)


def test_criterion_10_property_suite():
    ok = True
    for p in GRID:
        _, d, g = numerical_invariants(p)
        records = classify_ulrich_line_bundles(p)
        divisors = {r.divisor for r in records}
        for r in records:
            ok &= ulrich_dual(p, ulrich_dual(p, r.divisor)) == r.divisor
            ok &= r.special_pairing in divisors
            q, e = base_swap(p, r.divisor)
            ok &= is_ulrich_line(q, e)
            ok &= h_scroll(p, r.divisor).h0 == d
            ok &= slope(p, r.divisor, 1) == Fraction(d + g - 1)
        for rec in enumerate_cases(p, classify_ulrich_line_bundles(p)):
            ok &= slope(p, rec.c1, 2) == Fraction(d + g - 1)
    report(10, "involutions, closure, swap, sections, slopes", ok)
