"""Extension tables, endomorphism invariants, moduli and instanton bookkeeping."""

import pytest

from scroll_ulrich import (
    DivisorClass,
    ScrollParams,
    chi,
    chi_filtered,
    classify_ulrich_line_bundles,
    enumerate_cases,
    h_scroll,
    instanton_admissible,
    moduli_predictions,
    mul_div_div,
    named_line_bundles,
    whitney,
)
from scroll_ulrich import extensions
from scroll_ulrich.cli import EXIT_OK, main
from scroll_ulrich.extensions import CASE_ORBITS, ORBIT_REPRESENTATIVE

A0_GRID = [(0, b, c) for b in range(4) for c in range(b + 1, b + 7)]
FULL_GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]


def test_ext_dims_named_examples():
    p = ScrollParams(2, 3, 6)
    f = named_line_bundles(p)
    assert h_scroll(p, f["N_dual"] - f["N"]).h1 == 4  # a + 2
    q = ScrollParams(0, 1, 3)
    g = named_line_bundles(q)
    assert h_scroll(q, g["L_dual"] - g["L"]).h1 == 12  # 3(2c - b - 1)
    assert h_scroll(q, g["L"] - g["L"]).h1 == 0


def test_ext_dim_table_on_grid():
    for a, b, c in FULL_GRID:
        p = ScrollParams(a, b, c)
        f = named_line_bundles(p)
        assert h_scroll(p, f["N_dual"] - f["N"]).h1 == (a + 2 if a > 0 else 3)
        assert h_scroll(p, f["N"] - f["N_dual"]).h1 == (b + 2 if b > 0 else 3)
        if a == 0:
            assert h_scroll(p, f["L_dual"] - f["L"]).h1 == 3 * (2 * c - b - 1)
            assert h_scroll(p, f["L"] - f["L_dual"]).h1 == 2 * c - b + 1
            assert h_scroll(p, f["L"] - f["N"]).h1 == 0
            want = 2 * c - b - 2 if c > b + 1 else c - 1
            assert h_scroll(p, f["N"] - f["L"]).h1 == want
            assert h_scroll(p, f["L"] - f["N_dual"]).h1 == 2 * c - b + 2
        if a == 0 and b == 0:
            assert h_scroll(p, f["M"] - f["L"]).h1 == 8 * c - 4
            assert h_scroll(p, f["M_dual"] - f["L"]).h1 == 0


def test_ext_asymmetry():
    for b in range(4):
        for c in range(b + 2, b + 7):  # c > b + 1
            p = ScrollParams(0, b, c)
            f = named_line_bundles(p)
            assert h_scroll(p, f["L"] - f["N"]).h1 == 0
            assert h_scroll(p, f["N"] - f["L"]).h1 == 2 * c - b - 2 > 0


def _chern(p, sub, quot):
    """(c1, c2) of an extension of quot by sub: the Whitney fold over (sub, quot)."""
    *_, (c1, c2, _) = whitney(p, (sub, quot))
    return c1, c2


def _twisted(p, sub, quot):
    """(c1, c2) of F(-h): the fold over (sub - h, quot - h)."""
    return _chern(p, sub - p.h, quot - p.h)


def _chi_endo(p, sub, quot):
    """chi(End F): the pair sum of chi_filtered over the quotients (sub, quot)."""
    return sum(chi_filtered(p, (sub, quot), t) for t in (sub, quot))


def test_extension_chern_examples():
    p = ScrollParams(1, 2, 4)
    f = named_line_bundles(p)
    c1, c2 = _chern(p, f["N_dual"], f["N"])
    assert c1 == DivisorClass(2, 2, 4 * 4 - 2 - 1 - 2)
    assert c2.as_tuple() == (4, 2 * (2 * 4 - 2 - 1), 2 * (2 * 4 - 1 - 1))

    q = ScrollParams(0, 1, 3)
    g = named_line_bundles(q)
    _, c2 = _chern(q, g["N"], g["L"])
    assert c2.as_tuple() == (0, 8 * 3 - 4 * 1 - 3, 0)

    zero = DivisorClass(0, 0, 0)
    c1, c2 = _chern(q, zero, zero)
    assert c1 == zero and c2.as_tuple() == (0, 0, 0)


def test_twisted_chern_closed_forms():
    for a, b, c in FULL_GRID:
        p = ScrollParams(a, b, c)
        f = named_line_bundles(p)
        c1_tw, c2_tw = _twisted(p, f["N_dual"], f["N"])
        assert c1_tw.as_tuple() == (0, 0, 2 * c - a - b - 2)
        assert c2_tw.as_tuple() == (2, a, b)
        if a == 0:
            c1_tw, c2_tw = _twisted(p, f["L_dual"], f["L"])
            assert c1_tw.as_tuple() == (0, 0, 2 * c - b - 2)
            assert c2_tw.as_tuple() == (0, 0, 2 * c - b)


def test_records_read_the_fold_and_the_chi_sum():
    # the fold over (sub - h, quot - h) is the rank-two twist rule
    # (c1 - 2h, c2 - c1.h + h^2), and the pair sum is 2 chi(O_X) plus both differences
    for cell in FULL_GRID[::2]:
        p = ScrollParams(*cell)
        h = p.h
        for r in enumerate_cases(p, classify_ulrich_line_bundles(p)):
            c1, c2 = _chern(p, r.sub, r.quotient)
            assert (r.c1, r.c2) == (c1, c2) == (r.sub + r.quotient, mul_div_div(r.sub, r.quotient, p))
            assert (r.c1_twisted, r.c2_twisted) == _twisted(p, r.sub, r.quotient) == (
                c1 - 2 * h, c2 - mul_div_div(c1, h, p) + mul_div_div(h, h, p)
            )
            assert r.chi_endo == _chi_endo(p, r.sub, r.quotient) == (
                2 + chi(p, r.sub - r.quotient) + chi(p, r.quotient - r.sub)
            )


def test_chi_endomorphisms():
    q = ScrollParams(0, 1, 3)
    g = named_line_bundles(q)
    assert _chi_endo(q, g["L_dual"], g["L"]) == 4 - 4 * (2 * 3 - 1)
    p = ScrollParams(0, 2, 4)
    f = named_line_bundles(p)
    assert _chi_endo(p, f["N_dual"], f["N"]) == -4
    d = DivisorClass(2, 0, 5)
    assert _chi_endo(p, d, d) == 4


def test_chi_endomorphisms_minus_four_for_positive_a():
    for a, b, c in FULL_GRID:
        if a == 0:
            continue
        p = ScrollParams(a, b, c)
        f = named_line_bundles(p)
        assert _chi_endo(p, f["N_dual"], f["N"]) == -4


def test_chi_endo_of_dual_pairs_nonpositive_on_grid():
    for a, b, c in FULL_GRID:
        p = ScrollParams(a, b, c)
        f = named_line_bundles(p)
        pairs = [("N_dual", "N")]
        if a == 0:
            pairs.append(("L_dual", "L"))
        if b == 0:
            pairs.append(("M_dual", "M"))
        for s, q in pairs:
            value = _chi_endo(p, f[s], f[q])
            assert value <= 0
            # additivity over the filtration, spelled out
            assert value == 2 + chi(p, f[s] - f[q]) + chi(p, f[q] - f[s])


def test_record_count_is_ordered_pairs():
    for cell in [(1, 2, 4), (0, 1, 2), (0, 0, 3), (2, 0, 4)]:
        p = ScrollParams(*cell)
        n = len(named_line_bundles(p))
        assert len(enumerate_cases(p, classify_ulrich_line_bundles(p))) == n * (n - 1)


def _h2_endo(cell, sub_tag, quot_tag):
    """The h2_endo field of the record (sub_tag, quot_tag) at `cell`."""
    p = ScrollParams(*cell)
    (r,) = [r for r in enumerate_cases(p, classify_ulrich_line_bundles(p))
            if (r.sub_tag, r.quot_tag) == (sub_tag, quot_tag)]
    return r.h2_endo


def test_h2_endomorphisms():
    assert _h2_endo((0, 4, 6), "N_dual", "N") == 3  # b - 1
    assert _h2_endo((0, 1, 3), "N_dual", "N") == 0
    assert _h2_endo((0, 1, 3), "L_dual", "L") == 0


def test_h2_endomorphisms_hypothesis_guard():
    # h^2(N^U - N) != 0 at a >= 2: the record refuses h^2(End F) and stores None
    assert _h2_endo((2, 3, 6), "N_dual", "N") is None


def test_each_difference_class_is_evaluated_once(monkeypatch):
    calls = []
    original = extensions.h_scroll

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    p = ScrollParams(0, 0, 3)
    bundles = classify_ulrich_line_bundles(p)
    monkeypatch.setattr(extensions, "h_scroll", counted)
    records = enumerate_cases(p, bundles)
    assert len(records) == 30
    assert len(calls) == len({r.sub - r.quotient for r in records}) == 18


def test_enumerate_counts():
    p = ScrollParams(1, 2, 4)
    assert len(enumerate_cases(p, classify_ulrich_line_bundles(p))) == 2
    p = ScrollParams(0, 1, 2)
    recs = enumerate_cases(p, classify_ulrich_line_bundles(p))
    assert len(recs) == 12
    assert {r.case_id for r in recs} == set(range(1, 7))
    p = ScrollParams(0, 0, 2)
    recs = enumerate_cases(p, classify_ulrich_line_bundles(p))
    assert len(recs) == 30
    assert {r.case_id for r in recs} == set(range(1, 16))


def test_orbits_partition_cases():
    # the paper's six orbits under the Ulrich dual and the base swap, written
    # out: the oracle for the orbits derived from the two tag involutions
    assert CASE_ORBITS == ((1,), (2, 7), (3, 6, 12, 15), (4, 5, 13, 14), (8, 11), (9, 10))
    assert set(ORBIT_REPRESENTATIVE) == set(range(1, 16))
    assert set(ORBIT_REPRESENTATIVE.values()) == {1, 2, 3, 4, 8, 9}
    assert ORBIT_REPRESENTATIVE[15] == 3
    assert ORBIT_REPRESENTATIVE[7] == 2


def test_involutions_transport_case_data_verbatim():
    # At a = b = 0 the base swap fixes the parameters, so both involutions
    # act on one record set.  Swap: 2<->7, 3<->15, 4<->13, 5<->14, 6<->12,
    # 8<->11 (1, 9, 10 fixed); dual: 3<->6, 4<->5, 8<->11, 9<->10,
    # 12<->15, 13<->14 (1, 2, 7 fixed).
    from scroll_ulrich import ulrich_dual

    p = ScrollParams(0, 0, 2)
    recs = enumerate_cases(p, classify_ulrich_line_bundles(p))
    by_pair = {(r.sub.as_tuple(), r.quotient.as_tuple()): r for r in recs}
    swap_map = {1: 1, 2: 7, 3: 15, 4: 13, 5: 14, 6: 12, 7: 2, 8: 11,
                9: 9, 10: 10, 11: 8, 12: 6, 13: 4, 14: 5, 15: 3}
    dual_map = {1: 1, 2: 2, 3: 6, 4: 5, 5: 4, 6: 3, 7: 7, 8: 11, 9: 10,
                10: 9, 11: 8, 12: 15, 13: 14, 14: 13, 15: 12}
    kx4h = p.canonical + 4 * p.h
    for r in recs:
        swapped = by_pair[
            ((r.sub.y, r.sub.x, r.sub.z), (r.quotient.y, r.quotient.x, r.quotient.z))
        ]
        assert swapped.case_id == swap_map[r.case_id]
        assert swapped.ext_dim == r.ext_dim
        assert swapped.c2 == r.c2.swapped()

        dual = by_pair[
            (
                ulrich_dual(p, r.quotient).as_tuple(),
                ulrich_dual(p, r.sub).as_tuple(),
            )
        ]
        assert dual.case_id == dual_map[r.case_id]
        assert dual.ext_dim == r.ext_dim
        assert dual.c1 == 2 * kx4h - r.c1
        assert dual.c2 == mul_div_div(kx4h, kx4h, p) - mul_div_div(kx4h, r.c1, p) + r.c2


def test_split_only_at_degree_six():
    p = ScrollParams(0, 0, 1)
    f = named_line_bundles(p)
    assert h_scroll(p, f["N"] - f["L"]).h1 == 0
    assert h_scroll(p, f["L"] - f["N"]).h1 == 0
    pred = _predictions((0, 0, 1))[3]
    assert (pred.dimension_kind, pred.dimension) == ("point", 0)
    assert "split" in pred.branch_note


def test_case_speciality():
    for b in range(3):
        p = ScrollParams(0, b, b + 2)
        recs = enumerate_cases(p, classify_ulrich_line_bundles(p))
        for r in recs:
            if r.case_id in (1, 2, 7):
                assert r.special
            else:
                assert not r.special


def test_obstruction_verdicts():
    p = ScrollParams(0, 0, 2)
    recs = {r.case_id: r for r in enumerate_cases(p, classify_ulrich_line_bundles(p))}
    assert recs[1].obstruction.from_both
    assert not recs[2].obstruction.from_base_a and recs[2].obstruction.from_base_b
    assert not recs[7].obstruction.from_base_b and recs[7].obstruction.from_base_a
    for k in (3, 4, 5, 6, 8, 9):
        assert recs[k].obstruction.from_both


def _predictions(cell):
    """The moduli predictions of the records at `cell`, by case."""
    p = ScrollParams(*cell)
    records = enumerate_cases(p, classify_ulrich_line_bundles(p))
    return {pred.case_id: pred for pred in moduli_predictions(p, records)}


def test_moduli_predictions():
    p = _predictions((0, 1, 3))[2]
    assert (p.dimension_kind, p.dimension, p.generically_smooth, p.special) == (
        "exact", 17, True, True,
    )
    p = _predictions((1, 1, 3))[1]
    assert (p.dimension_kind, p.dimension) == ("exact", 5)
    p = _predictions((0, 1, 2))[3]
    assert p.dimension_kind == "point" and not p.special
    p = _predictions((0, 0, 2))[8]
    assert p.dimension_kind == "point"
    for cell in [(0, 2, 4), (1, 2, 4), (2, 3, 6)]:
        p = _predictions(cell)[1]
        assert (p.dimension_kind, p.dimension, p.generically_smooth) == (
            "at_least_if_stable", 5, None,
        )
        assert "stable points" in p.branch_note
    # swap image of case 2 at a b = 0 cell
    p = _predictions((2, 0, 4))[7]
    assert (p.dimension_kind, p.dimension) == ("exact", 4 * (2 * 4 - 2) - 3)


def test_one_prediction_per_case_of_the_records():
    # a case whose line bundles do not exist at the parameters has no records,
    # and so no prediction
    assert list(_predictions((1, 1, 3))) == [1]
    assert list(_predictions((0, 1, 2))) == [1, 2, 3, 4, 5, 6]
    assert list(_predictions((0, 0, 2))) == list(range(1, 16))


@pytest.mark.parametrize("cell, classes", [((0, 0, 3), 18), ((0, 1, 3), 8)])
def test_ext_table_evaluates_each_difference_class_once(monkeypatch, capsys, cell, classes):
    # the predictions read the records, so they ask h_scroll nothing
    calls = []
    original = extensions.h_scroll

    def counted(params, div):
        calls.append(div)
        return original(params, div)

    monkeypatch.setattr(extensions, "h_scroll", counted)
    a, b, c = cell
    assert main(["ext-table", "--a", str(a), "--b", str(b), "--c", str(c)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == classes


def test_instanton_charge_one():
    triples = instanton_admissible(1)
    by_case = {}
    for t in triples:
        by_case.setdefault(t.case, []).append((t.k1, t.k2, t.k3))
    assert by_case["alpha"] == [(0, 0, 2)]
    assert sorted(by_case["beta"]) == [(0, 1, 1), (1, 0, 1)]
    assert sorted(by_case["gamma"]) == [(0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert all(t.predicted_dim == 5 for t in triples)


def test_instanton_constraint_and_dims():
    for c in range(1, 7):
        triples = instanton_admissible(c)
        assert all(t.k1 + t.k2 + c * t.k3 == 2 * c for t in triples)
        assert all(t.charge == t.k1 + t.k2 + t.k3 for t in triples)
        betas = [t for t in triples if t.case == "beta"]
        gammas = [t for t in triples if t.case == "gamma"]
        assert len(betas) == c + 1 and all(t.predicted_dim == 4 * (c + 1) - 3 for t in betas)
        assert len(gammas) == 2 * c + 1 and all(t.predicted_dim == 8 * c - 3 for t in gammas)
        for t in triples:
            assert t.c2_after_twist == (t.k1 + 4 * c - 2, t.k2 + 4 * c - 2, t.k3 + 2)
    with pytest.raises(ValueError):
        instanton_admissible(0)


def test_records_skip_the_constructor(constructor_calls):
    # build_extension_record builds each record by tuple.__new__, in field order
    calls = constructor_calls(extensions.Rank2ExtensionRecord)
    p = ScrollParams(0, 0, 3)
    records = enumerate_cases(p, classify_ulrich_line_bundles(p))
    assert len(records) == 30 and calls == []
    assert all(type(r) is extensions.Rank2ExtensionRecord for r in records)
