"""Ulrich predicate, involutions and the exhaustive classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll_ulrich import ulrich
from scroll_ulrich import (
    Codim2Class,
    DivisorClass,
    ScrollParams,
    base_swap,
    classify_ulrich_line_bundles,
    h_scroll,
    is_special_rank2,
    is_ulrich_line,
    named_line_bundles,
    numerical_invariants,
    pullback_obstruction_report,
    slope,
    ulrich_dual,
)
from scroll_ulrich.cohomology import ZERO_COHOMOLOGY, chi, twice_chi
from scroll_ulrich.ulrich import expected_count, z_window
from scroll_ulrich.verify import _l_root, verify_scan_bounds

GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]
params_st = st.sampled_from([ScrollParams(*cell) for cell in GRID])


def test_predicate_examples():
    p = ScrollParams(1, 2, 4)
    assert is_ulrich_line(p, DivisorClass(2, 0, 6))
    assert not is_ulrich_line(p, DivisorClass(0, 0, 0))
    assert not is_ulrich_line(ScrollParams(0, 1, 2), DivisorClass(2, 1, 1))


def test_trivial_bundle_fails_via_h3():
    # h^3(-2h) = h^0(K_X + 2h) = 2c - a - b - 1 > 0
    for cell in [(0, 0, 1), (1, 2, 4), (3, 3, 10)]:
        p = ScrollParams(*cell)
        k2h = p.canonical + 2 * p.h
        assert h_scroll(p, k2h).h0 == 2 * p.c - p.a - p.b - 1
        assert not is_ulrich_line(p, DivisorClass(0, 0, 0))


def test_ulrich_dual_examples():
    p = ScrollParams(1, 2, 4)
    n = DivisorClass(2, 0, 2 * p.c - p.a - 1)
    assert ulrich_dual(p, n) == DivisorClass(0, 2, 2 * p.c - p.b - 1)
    q = ScrollParams(0, 0, 3)
    ell = DivisorClass(1, 0, 3 * q.c - 1)
    assert ulrich_dual(q, ell) == DivisorClass(1, 2, q.c - 1)


@given(params_st, st.builds(DivisorClass, st.integers(-5, 5), st.integers(-5, 5), st.integers(-20, 20)))
def test_dual_and_swap_are_involutions(p, d):
    assert ulrich_dual(p, ulrich_dual(p, d)) == d
    q, e = base_swap(p, d)
    assert base_swap(q, e) == (p, d)


def test_base_swap_examples():
    p = ScrollParams(1, 2, 4)
    q, image = base_swap(p, DivisorClass(2, 0, 6))
    assert q == ScrollParams(2, 1, 4)
    assert image == DivisorClass(0, 2, 6)
    # the image is the dual-N form of the swapped parameters
    assert image == named_line_bundles(q)["N_dual"]

    r = ScrollParams(0, 0, 2)
    _, image = base_swap(r, named_line_bundles(r)["L"])
    assert image == named_line_bundles(r)["M_dual"]


@pytest.mark.parametrize(
    "cell,count,tags",
    [
        ((1, 2, 4), 2, {"N", "N_dual"}),
        ((0, 1, 2), 4, {"N", "N_dual", "L", "L_dual"}),
        ((0, 0, 2), 6, {"N", "N_dual", "L", "L_dual", "M", "M_dual"}),
        ((2, 0, 4), 4, {"N", "N_dual", "M", "M_dual"}),
    ],
)
def test_classification_examples(cell, count, tags):
    p = ScrollParams(*cell)
    records = classify_ulrich_line_bundles(p)
    assert len(records) == count
    assert {r.tag for r in records} == tags
    forms = named_line_bundles(p)
    for r in records:
        assert r.divisor == forms[r.tag]


def test_classification_grid_count_law():
    for cell in GRID:
        p = ScrollParams(*cell)
        records = classify_ulrich_line_bundles(p)
        assert len(records) == expected_count(p)
        assert all(r.tag != "other" for r in records)


def test_duality_closure_and_section_count():
    for cell in GRID:
        p = ScrollParams(*cell)
        _, d, g = numerical_invariants(p)
        records = classify_ulrich_line_bundles(p)
        divisors = {r.divisor for r in records}
        for r in records:
            assert r.special_pairing in divisors
            assert h_scroll(p, r.divisor).h0 == d
            assert slope(p, r.divisor, 1) == d + g - 1


def test_swap_invariance_of_predicate():
    for cell in GRID[:12]:
        p = ScrollParams(*cell)
        for x in range(3):
            for y in range(3):
                for z in z_window(p):
                    d = DivisorClass(x, y, z)
                    q, e = base_swap(p, d)
                    assert is_ulrich_line(p, d) == is_ulrich_line(q, e)


def test_predicate_matches_object_route():
    # D - jh built from coordinates against D - jh built by class arithmetic, and
    # the Riemann-Roch sieve against h_scroll alone, at small c and at one large c
    for a in range(3):
        for b in range(3):
            for c in (*range(a + b + 1, a + b + 4), 40):
                p = ScrollParams(a, b, c)
                for x in range(-3, 6):
                    for y in range(-3, 6):
                        for z in z_window(p):
                            d = DivisorClass(x, y, z)
                            assert is_ulrich_line(p, d) == all(
                                h_scroll(p, d - j * p.h) == ZERO_COHOMOLOGY for j in (1, 2, 3)
                            )


@settings(max_examples=300)
@given(
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(-10**12, 10**12),
)
def test_factored_riemann_roch_is_twice_chi(a, b, x, y, z):
    # the library spells Riemann-Roch once, factored; the expanded form is the reference
    p = ScrollParams(a, b, a + b + 1)
    expanded = (
        (x + 1) * (y + 1) * (z + 1)
        - b * (y + 1) * (x * (x + 1) // 2)
        - a * (x + 1) * (y * (y + 1) // 2)
    )
    assert twice_chi(a, b, x, y, z) == 2 * expanded
    assert chi(p, DivisorClass(x, y, z)) == expanded


# (a, b) -> h_scroll calls beyond three per Ulrich bundle.  At (2, 3) two classes
# have chi(D - jh) = 0 for j = 1, 2, 3 and are not Ulrich: (1, 0, 3c - 7), whose
# D - 3h has h^2 = h^3 = 1 (three calls), and (1, 2, c), whose D - h has
# h^0 = h^1 = 1 (one call).
NUMERICAL_NON_ULRICH_CALLS = {(0, 0): 0, (0, 1): 0, (2, 3): 4}


@pytest.mark.parametrize("a, b", sorted(NUMERICAL_NON_ULRICH_CALLS))
def test_h_scroll_calls_do_not_depend_on_c(monkeypatch, a, b):
    calls = []

    def counted(params, div):
        calls.append(div)
        return h_scroll(params, div)

    monkeypatch.setattr(ulrich, "h_scroll", counted)
    counts = set()
    for c in (a + b + 1, 10, 2000):
        calls.clear()
        records = classify_ulrich_line_bundles(ScrollParams(a, b, c))
        assert len(calls) == 3 * len(records) + NUMERICAL_NON_ULRICH_CALLS[a, b], c
        counts.add(len(calls))
    assert len(counts) == 1


@pytest.mark.parametrize("a, b", sorted(NUMERICAL_NON_ULRICH_CALLS))
def test_scan_builds_no_class_per_z(constructor_calls, a, b):
    # the scan builds each D and each D - jh by tuple.__new__: the constructor
    # builds the named forms and h and K_X, as many at c = 1000 as at c = 10
    calls = constructor_calls(DivisorClass)
    counts = []
    for c in (10, 1000):
        calls.clear()
        classify_ulrich_line_bundles(ScrollParams(a, b, c))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_scan_bound_reverification():
    for cell in [(0, 0, 1), (0, 2, 3), (1, 1, 3), (2, 3, 6)]:
        assert verify_scan_bounds(ScrollParams(*cell))


def test_l_root_matches_named_forms():
    for cell in GRID:
        p = ScrollParams(*cell)
        for tag, d in named_line_bundles(p).items():
            (j,) = {1, 2, 3} - {d.x + 1, d.y + 1}
            assert _l_root(p, d.x, d.y, j) == d.z


def test_slope_values_and_errors():
    p = ScrollParams(1, 1, 3)
    n = DivisorClass(2, 0, 4)
    assert slope(p, n, 1) == 14
    assert slope(p, DivisorClass(0, 0, 0), 1) == 0
    q = ScrollParams(0, 0, 1)
    nn = named_line_bundles(q)["N"] + named_line_bundles(q)["N_dual"]
    assert slope(q, nn, 2) == 6  # d + g - 1 = 6 + 1 - 1
    with pytest.raises(ValueError):
        slope(p, n, 0)


def test_speciality():
    p = ScrollParams(0, 1, 3)
    assert is_special_rank2(p, DivisorClass(2, 2, 4 * 3 - 1 - 2))
    assert not is_special_rank2(p, DivisorClass(3, 0, 5 * 3 - 1 - 2))
    assert not is_special_rank2(p, DivisorClass(0, 0, 0))


def test_pullback_obstruction():
    assert pullback_obstruction_report(Codim2Class(2, 1, 2)).from_base_a
    assert not pullback_obstruction_report(Codim2Class(0, 0, 7)).from_base_a
    assert not pullback_obstruction_report(Codim2Class(0, 0, 0)).from_base_a
    report = pullback_obstruction_report(Codim2Class(0, 0, 7))
    assert not report.from_base_a and report.from_base_b
    report = pullback_obstruction_report(Codim2Class(0, 5, 0))
    assert report.from_base_a and not report.from_base_b
    assert not pullback_obstruction_report(Codim2Class(0, 0, 0)).from_both


def test_kx4h_is_built_once_per_params(monkeypatch):
    # ulrich_dual and is_special_rank2 read ScrollParams.kx4h, built on first use:
    # their 18 calls here build K_X + 4h once
    p = ScrollParams(0, 0, 3)
    kx4h = (2, 2, 4 * 3 - 2)
    built = []
    add = DivisorClass.__add__

    def counted(self, other):
        total = add(self, other)
        if total == kx4h:
            built.append(total)
        return total

    monkeypatch.setattr(DivisorClass, "__add__", counted)
    for d in named_line_bundles(p).values():
        assert ulrich_dual(p, ulrich_dual(p, d)) == d
        assert not is_special_rank2(p, d)
    assert len(built) == 1
