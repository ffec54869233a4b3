"""Iterated extension tower: recursion vs closed forms, chi and h^1 ladders."""

import json

import pytest

from scroll_ulrich import (
    DivisorClass,
    ScrollParams,
    chi_endo_tower,
    chi_tower_vs_line,
    iter_tower,
    moduli_dim_gap,
    moduli_dim_tower,
    mul_div_div,
    named_line_bundles,
    slope,
    tower_h1_recursion,
)
from scroll_ulrich import cohomology, tower
from scroll_ulrich.cli import main
from scroll_ulrich.tower import in_tower_hypothesis, tower_pair
from scroll_ulrich.verify import _closed_c1, _closed_c2, _closed_c3

HYP_GRID = [
    (a, b, c) for a in (0, 1) for b in range(a, 2) for c in range(a + b + 1, a + b + 7)
]


def _c1_steps(p, r_max):
    """Q_1, ..., Q_{r_max} read off the tower as successive differences of c1."""
    c1s = [DivisorClass(0, 0, 0)] + [t.c1 for t in iter_tower(p, r_max)]
    return [after - before for before, after in zip(c1s, c1s[1:])]


def _pick(p, i):
    """The i-th quotient by parity: N^U for odd i, N for even i."""
    n_dual, n = tower_pair(p)
    return n_dual if i % 2 else n


def test_tower_pair_is_the_named_n_pair():
    # tower_pair spells (N^U, N) apart from named_line_bundles; the two agree
    for cell in HYP_GRID + [(2, 3, 6), (1, 4, 9)]:
        p = ScrollParams(*cell)
        forms = named_line_bundles(p)
        assert tower_pair(p) == (forms["N_dual"], forms["N"]), cell


def test_epsilon():
    # which of the N pair is the r-th quotient: N^U (the first) at odd r, N at even r
    p = ScrollParams(0, 1, 2)
    n_dual, n = tower_pair(p)
    q = _c1_steps(p, 7)
    assert (q[0], q[1], q[6]) == (n_dual, n, n_dual)
    assert [t.rank for t in iter_tower(p, 7)] == list(range(1, 8))
    with pytest.raises(ValueError):
        list(iter_tower(p, 0))


def test_rank_one_and_two():
    p = ScrollParams(0, 1, 2)
    f = named_line_bundles(p)
    t1, t2 = iter_tower(p, 2)
    assert t1.c1 == f["N_dual"]
    assert t1.c2.as_tuple() == (0, 0, 0) and t1.c3 == 0
    assert t2.c1 == f["N"] + f["N_dual"]
    assert t2.c2 == mul_div_div(f["N_dual"], f["N"], p)
    assert _c1_steps(p, 2) == [f["N_dual"], f["N"]]


def test_c3_example():
    *_, t3 = iter_tower(ScrollParams(0, 0, 1), 3)
    assert t3.c3 == 8  # (r^2 - 1)(r - 2)(2c - b - a - 1)


def test_recursion_matches_closed_forms_everywhere():
    # closed forms hold for all parameters, not only the small-a-b strip
    for cell in [(0, 0, 1), (0, 1, 2), (1, 1, 3), (1, 2, 4), (2, 3, 6), (3, 3, 12)]:
        p = ScrollParams(*cell)
        for t in iter_tower(p, 12):
            r = t.rank
            assert (t.c1, t.c2, t.c3) == (_closed_c1(p, r), _closed_c2(p, r), _closed_c3(p, r))


def test_outside_hypothesis_flag(capsys):
    # the tower-report column, read from in_tower_hypothesis per cell
    assert main("tower-report --a 0 --b 1..2 --c 4 --rmax 4".split()) == 0
    report = json.loads(capsys.readouterr().out)
    chern = next(t for t in report["tables"] if t["name"] == "tower-chern")
    flags = {(row[1], row[-1]) for row in chern["rows"]}
    assert flags == {(1, False), (2, True)}


def test_slope_constant_in_rank():
    for cell in HYP_GRID:
        p = ScrollParams(*cell)
        mu = 4 * (2 * p.c - p.b - p.a) - 2
        for t in iter_tower(p, 12):
            assert slope(p, t.c1, t.rank) == mu


def test_chi_vs_line_closed_forms():
    p = ScrollParams(0, 0, 1)
    n_dual, n = tower_pair(p)
    assert chi_tower_vs_line(p, 3, _pick(p, 4)) == -5
    assert chi_tower_vs_line(p, 2, _pick(p, 3)) == -2
    assert chi_tower_vs_line(p, 1, n_dual) == 1
    for cell in HYP_GRID:
        q = ScrollParams(*cell)
        for r in range(1, 13):
            next_q = _pick(q, r + 1)
            last_q = _pick(q, r)
            assert chi_tower_vs_line(q, r, next_q) == (-r - 2 if r % 2 else -r)
            assert chi_tower_vs_line(q, r, last_q) == (-r + 2 if r % 2 else -r)


def test_chi_vs_line_skips_assertion_outside_hypothesis():
    p = ScrollParams(0, 3, 4)
    n_dual, n = tower_pair(p)
    value = chi_tower_vs_line(p, 3, n)
    # additive over the filtration: 2 chi(N^U - N) + chi(O)
    from scroll_ulrich import chi

    assert value == 2 * chi(p, n_dual - n) + 1


def test_chi_endo_tower():
    p = ScrollParams(0, 0, 1)
    assert chi_endo_tower(p, 1) == 1
    assert chi_endo_tower(p, 2) == -4
    assert chi_endo_tower(p, 3) == -7
    for cell in HYP_GRID:
        q = ScrollParams(*cell)
        for r in range(1, 13):
            assert chi_endo_tower(q, r) == (-r * r + 2 if r % 2 else -r * r)


def test_h1_sequence():
    for cell in HYP_GRID:
        q = ScrollParams(*cell)
        seq = tower_h1_recursion(q, 12)
        assert seq == [r + 2 if r % 2 else r + 1 for r in range(1, 13)]
        assert tower_h1_recursion(q, 1) == seq[:1]
    with pytest.raises(ValueError):
        tower_h1_recursion(ScrollParams(0, 2, 3), 4)
    with pytest.raises(ValueError):
        tower_h1_recursion(ScrollParams(0, 0, 1), 0)


def test_moduli_dims_and_gaps():
    assert moduli_dim_tower(1) == 0
    assert moduli_dim_tower(2) == 5
    assert moduli_dim_tower(3) == 8
    assert [moduli_dim_gap(r) for r in range(2, 9)] == [3, 1, 5, 3, 7, 5, 9]
    for r in range(2, 13):
        want = r + 1 if r % 2 == 0 else r - 2
        assert moduli_dim_gap(r) == want > 0
    with pytest.raises(ValueError):
        moduli_dim_tower(0)
    with pytest.raises(ValueError):
        moduli_dim_gap(1)


def test_quotient_alternation():
    p = ScrollParams(1, 1, 3)
    f = named_line_bundles(p)
    quotients = _c1_steps(p, 6)
    for i, q in enumerate(quotients):
        assert q == (f["N"] if i % 2 else f["N_dual"])
    # the chi sums read the quotients that the Whitney steps add
    assert list(tower._quotients(p, 6)) == quotients


def test_hypothesis_predicate():
    assert in_tower_hypothesis(ScrollParams(0, 1, 2))
    assert not in_tower_hypothesis(ScrollParams(1, 0, 2))
    assert not in_tower_hypothesis(ScrollParams(0, 2, 3))


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_whitney_step_per_rank(monkeypatch, capsys):
    # one fold per cell, and the fold yields once per quotient it steps over
    folds, steps = [], []
    fold = tower.whitney

    def counted(params, quotients):
        folds.append(params)
        for step in fold(params, quotients):
            steps.append(step)
            yield step

    monkeypatch.setattr(tower, "whitney", counted)
    assert main("tower-report --a 0 --b 1 --c 3 --rmax 50".split()) == 0
    capsys.readouterr()
    assert len(folds) == 1
    assert len(steps) == 50


def test_chi_endo_reads_the_named_forms_once(monkeypatch):
    # the N pair of the named forms, through tower_pair
    p = ScrollParams(0, 1, 3)
    reads = _counted(monkeypatch, tower, "tower_pair")
    for r in (1, 2, 9):
        reads.clear()
        assert chi_endo_tower(p, r) == (-r * r + 2 if r % 2 else -r * r)
        assert len(reads) == 1


def test_h_scroll_calls_do_not_depend_on_rmax(monkeypatch, capsys):
    # chi is the Riemann-Roch polynomial, so the r^2 pair sums of chi(End G_r)
    # ask no cohomology: h_scroll answers the two h^1 seeds, whatever rmax is
    in_cohomology = _counted(monkeypatch, cohomology, "h_scroll")
    in_tower = _counted(monkeypatch, tower, "h_scroll")
    n_dual, n = tower_pair(ScrollParams(0, 1, 3))
    for rmax in (10, 100):
        in_cohomology.clear()
        in_tower.clear()
        assert main(f"tower-report --a 0 --b 1 --c 3 --rmax {rmax}".split()) == 0
        capsys.readouterr()
        calls = [div for _, div in in_cohomology + in_tower]
        assert calls == [n_dual - n, n - n_dual], rmax


def test_chi_sums_build_no_class_per_term(monkeypatch):
    # chi(End G_r) is still the r^2 pair sum, but each term adds twice_chi of
    # three int differences and the sum is halved once: no chi call and no
    # DivisorClass subtraction at any rank
    p = ScrollParams(0, 1, 3)
    subtractions = _counted(monkeypatch, DivisorClass, "__sub__")
    chi_calls = _counted(monkeypatch, cohomology, "chi")
    twice_chi_calls = _counted(monkeypatch, cohomology, "twice_chi")
    for r in (10, 40):
        for calls in (subtractions, chi_calls, twice_chi_calls):
            calls.clear()
        assert chi_endo_tower(p, r) == (-r * r + 2 if r % 2 else -r * r)
        assert (len(twice_chi_calls), len(chi_calls), len(subtractions)) == (r * r, 0, 0), r
