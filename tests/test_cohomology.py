"""Cohomology layer: frozen values and four independent oracles.

The scroll is toric; for any divisor class the sections are the lattice
points of the polyhedron cut out by the six rays of its fan,

    (1,0,b), (-1,a,0), (0,1,0), (0,-1,0), (0,0,1), (0,0,-1),

so h0 has a section-counting oracle that never touches the pushforward
code, and h3 follows from it through K_X - D.  The other oracles are the
term-by-term P^1 pushforward (`h_pushforward`), the Riemann-Roch polynomial,
and Hirzebruch-Riemann-Roch computed in the Chow ring alone.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll_ulrich import (
    CohomologyVector,
    DivisorClass,
    ScrollParams,
    chi,
    chi_closed_form,
    chi_filtered,
    h_scroll,
    serre_dual,
)
from scroll_ulrich import cohomology as cohmod
from scroll_ulrich.chow import Codim2Class, mul_div_c2, mul_div_div, triple
from scroll_ulrich.cohomology import ZERO_COHOMOLOGY

PARAMS = [
    ScrollParams(0, 0, 1),
    ScrollParams(0, 1, 2),
    ScrollParams(0, 2, 4),
    ScrollParams(1, 1, 3),
    ScrollParams(1, 2, 4),
    ScrollParams(2, 3, 6),
]


def h0_lattice(params, div):
    """Count lattice points (m, n, p) with

    m + b*p >= -z,  -m + a*n >= 0,  n >= -y,  -n >= 0,  p >= -x,  -p >= 0.
    """
    a, b = params.a, params.b
    x, y, z = div.x, div.y, div.z
    count = 0
    for p in range(-x, 1):
        for n in range(-y, 1):
            # -z - b*p <= m <= a*n
            count += max(a * n - (-z - b * p) + 1, 0)
    return count


def h3_lattice(params, div):
    return h0_lattice(params, serre_dual(params, div))


def _surface_pushforward(a, alpha, beta):
    """h^i(F_a, O(alpha, beta)) summed term by term over P^1."""
    if alpha == -1:
        return (0, 0, 0)
    if alpha < -1:  # Serre duality with K_{F_a} = (-2, -a-2)
        d0, d1, d2 = _surface_pushforward(a, -2 - alpha, -a - 2 - beta)
        return (d2, d1, d0)
    h0 = h1 = 0
    for k in range(alpha + 1):
        deg = beta - k * a
        h0 += max(deg + 1, 0)
        h1 += max(-deg - 1, 0)
    return (h0, h1, 0)


def h_pushforward(a, b, x, y, z):
    """h^i(X, O(x, y, z)) as the sum of the surface terms O(y, z - jb), 0 <= j <= x.

    The term-by-term P^1 pushforward, an oracle for the closed-form surface
    layer.
    """
    if x == -1:
        return (0, 0, 0, 0)
    if x < -1:  # Serre duality with K_X = (-2, -2, -(a+b+2))
        d = h_pushforward(a, b, -2 - x, -2 - y, -(a + b + 2) - z)
        return (d[3], d[2], d[1], d[0])
    h = [0, 0, 0]
    for j in range(x + 1):
        for i, v in enumerate(_surface_pushforward(a, y, z - j * b)):
            h[i] += v
    return (*h, 0)


def chi_hrr(params, div):
    """chi(O(D)) by Hirzebruch-Riemann-Roch, in the Chow ring alone.

    c1 = -K_X and, from the relative Euler sequence,
    c2(T_X) = (2 xi + b F)(2 C0 + (a+2) F) + 4 C0.F.
    """
    a, b = params.a, params.b
    c1 = -params.canonical
    c2 = mul_div_div(DivisorClass(2, 0, b), DivisorClass(0, 2, a + 2), params) + Codim2Class(0, 0, 4)
    assert mul_div_c2(c1, c2, params) == 24  # chi(O_X) = c1.c2 / 24 = 1
    value = (
        Fraction(triple(div, div, div, params), 6)
        + Fraction(triple(div, div, c1, params), 4)
        + Fraction(triple(div, c1, c1, params) + mul_div_c2(div, c2, params), 12)
        + 1
    )
    assert value.denominator == 1
    return int(value)


params_st = st.sampled_from(PARAMS)
divisors = st.builds(
    DivisorClass, st.integers(-6, 6), st.integers(-6, 6), st.integers(-25, 25)
)


# By the projection formula, O(0, alpha, beta) on X has the cohomology of
# O(alpha, beta) on F_a, and O(0, 0, d) that of O(d) on P^1.

def test_p1_values():
    for q in PARAMS:
        assert h_scroll(q, DivisorClass(0, 0, 3)).as_tuple() == (4, 0, 0, 0)
        assert h_scroll(q, DivisorClass(0, 0, -1)).as_tuple() == (0, 0, 0, 0)
        assert h_scroll(q, DivisorClass(0, 0, -4)).as_tuple() == (0, 3, 0, 0)


def test_hirzebruch_values():
    # h^0(P^1, O(1)) + h^0(O(0)) + h^0(O(-1)); lattice count agrees
    p = ScrollParams(1, 0, 2)
    assert h_scroll(p, DivisorClass(0, 2, 1)).as_tuple() == (3, 0, 0, 0)
    assert h_scroll(ScrollParams(2, 0, 3), DivisorClass(0, -1, 17)).as_tuple() == (0, 0, 0, 0)
    assert h_scroll(ScrollParams(0, 0, 1), DivisorClass(0, 2, 0)).as_tuple() == (3, 0, 0, 0)
    assert h_scroll(p, DivisorClass(0, 2, 1)).h0 == sum(max(1 - k + 1, 0) for k in range(3))


def test_hirzebruch_section_count_matches_lattice():
    # 2-dimensional slice of the lattice oracle (p = 0 layer with b = 0)
    p = ScrollParams(1, 0, 2)
    for alpha in range(4):
        for beta in range(-5, 6):
            d = DivisorClass(0, alpha, beta)
            assert h_scroll(p, d).h0 == h0_lattice(p, d)


def test_scroll_values():
    p = ScrollParams(0, 1, 2)
    assert h_scroll(p, DivisorClass(0, 2, -3)).as_tuple() == (0, 6, 0, 0)
    assert h_scroll(p, DivisorClass(0, -2, 3)).as_tuple() == (0, 4, 0, 0)
    assert chi(p, DivisorClass(0, 2, -3)) == -6
    for q in PARAMS:
        assert h_scroll(q, DivisorClass(0, 0, 0)).as_tuple() == (1, 0, 0, 0)
        assert h_scroll(q, DivisorClass(-1, 5, 9)) == ZERO_COHOMOLOGY
        assert chi(q, DivisorClass(-1, 5, 9)) == 0


def test_chi_closed_form_values():
    assert chi_closed_form(ScrollParams(1, 1, 3), DivisorClass(2, 2, 5)) == 36
    assert chi_closed_form(ScrollParams(0, 1, 2), DivisorClass(0, 2, -3)) == -6
    for q in PARAMS:
        assert chi_closed_form(q, DivisorClass(0, 0, 0)) == 1


def test_serre_dual_map():
    p = ScrollParams(0, 0, 1)
    assert serre_dual(p, DivisorClass(1, 1, 1)) == DivisorClass(-3, -3, -3)
    q = ScrollParams(1, 2, 4)
    assert serre_dual(q, DivisorClass(0, 0, 0)) == DivisorClass(-2, -2, -5)
    d = DivisorClass(3, -2, 7)
    assert serre_dual(q, serre_dual(q, d)) == d


@given(params_st, divisors)
@settings(max_examples=300)
def test_chi_equals_closed_form(p, d):
    # chi is the Riemann-Roch polynomial; the h-vector is a second route to it
    assert h_scroll(p, d).chi == chi(p, d)


@given(params_st, st.lists(divisors, max_size=4), divisors)
@settings(max_examples=100)
def test_chi_filtered_sums_the_h_vectors_of_the_quotients(p, quotients, line):
    # chi is additive over a filtration: one h-vector per quotient is a second route
    assert chi_filtered(p, quotients, line) == sum(h_scroll(p, q - line).chi for q in quotients)


@given(params_st, divisors)
@settings(max_examples=300)
def test_serre_reversal(p, d):
    assert h_scroll(p, d).reversed() == h_scroll(p, serre_dual(p, d))


@given(params_st, divisors)
@settings(max_examples=300)
def test_h0_h3_against_lattice_count(p, d):
    vec = h_scroll(p, d)
    assert vec.h0 == h0_lattice(p, d)
    assert vec.h3 == h3_lattice(p, d)


@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.integers(-60, 60),
)
@settings(max_examples=400)
def test_closed_form_against_pushforward_loop(a, b, x, y, z):
    # every sign branch of both layers, a = 0 (step-0 series) included
    p = ScrollParams(a, b, a + b + 1)
    assert h_scroll(p, DivisorClass(x, y, z)).as_tuple() == h_pushforward(a, b, x, y, z)
    assert h_scroll(p, DivisorClass(0, y, z)).as_tuple() == h_pushforward(a, 0, 0, y, z)


@given(st.integers(0, 5), st.integers(0, 5), divisors)
@settings(max_examples=300)
def test_chi_against_hirzebruch_riemann_roch(a, b, d):
    p = ScrollParams(a, b, a + b + 1)
    assert chi_hrr(p, d) == chi_closed_form(p, d) == h_scroll(p, d).chi


def test_large_class_in_bounded_time():
    # h_scroll sums |x| + 1 closed-form surface terms, whatever y and z are
    p = ScrollParams(1, 1, 3)
    for d in (DivisorClass(100000, 100000, 0), serre_dual(p, DivisorClass(100000, 100000, 0))):
        vec = h_scroll(p, d)
        assert vec.chi == chi_closed_form(p, d)
        assert h_scroll(p, serre_dual(p, d)) == vec.reversed()
        assert h_scroll(p.swapped(), DivisorClass(d.y, d.x, d.z)) == vec


@given(params_st, st.builds(DivisorClass, st.integers(0, 5), st.integers(0, 5), st.integers(-25, 25)))
def test_nonnegative_quadrant_against_direct_double_sum(p, d):
    # independent recount: every h^i is the double sum of P^1 contributions
    want = [0, 0, 0, 0]
    for j in range(d.x + 1):
        for k in range(d.y + 1):
            deg = d.z - j * p.b - k * p.a
            want[0] += max(deg + 1, 0)
            want[1] += max(-deg - 1, 0)
    assert h_scroll(p, d).as_tuple() == tuple(want)


@given(params_st, divisors)
def test_double_scroll_swap_invariance(p, d):
    q = p.swapped()
    assert h_scroll(p, d) == h_scroll(q, DivisorClass(d.y, d.x, d.z))


@given(params_st, divisors)
def test_degree_bounds(p, d):
    vec = h_scroll(p, d)
    assert min(vec.as_tuple()) >= 0
    if d.x >= 0:
        assert vec.h3 == 0
    if d.x == -1:
        assert vec == ZERO_COHOMOLOGY
    if d.x >= 0 and d.y == -1:
        assert vec == ZERO_COHOMOLOGY


def _count_calls(monkeypatch, name):
    """Patch the cohomology global `name` with a wrapper; return the list of its calls."""
    calls = []
    original = getattr(cohmod, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohmod, name, counted)
    return calls


def test_h_scroll_keeps_no_state(monkeypatch):
    # the same query costs the same series evaluations every time: no memo
    # answers a repeat
    calls = _count_calls(monkeypatch, "_clipped_series")
    p, d = ScrollParams(1, 2, 4), DivisorClass(3, -4, 5)
    counts = []
    for _ in range(2):
        calls.clear()
        h_scroll(p, d)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# One class of each sign branch of h_scroll: x >= 0 or x <= -2, crossed with
# y >= 0 or y <= -2.
ONE_CLASS_PER_BRANCH = [(4, 2, 5), (3, -4, 5), (-7, 3, 1), (-5, -6, 1)]


@pytest.mark.parametrize("x, y, z", ONE_CLASS_PER_BRANCH)
def test_each_class_is_normalised_once(monkeypatch, x, y, z):
    # the scroll layer is entered once, so a class with x <= -2 is dualised
    # once, and each term of the normalised j-loop costs two series
    entries = _count_calls(monkeypatch, "_h_scroll")
    series = _count_calls(monkeypatch, "_clipped_series")
    h_scroll(ScrollParams(1, 2, 4), DivisorClass(x, y, z))
    x_normalised = x if x >= 0 else -2 - x
    assert len(entries) == 1
    assert len(series) == 2 * (x_normalised + 1)


@pytest.mark.parametrize("x, y, z", ONE_CLASS_PER_BRANCH)
def test_h_scroll_skips_the_constructor(constructor_calls, x, y, z):
    # the vector is built from one 4-tuple by tuple.__new__; it must not show it
    calls = constructor_calls(CohomologyVector)
    vec = h_scroll(ScrollParams(1, 2, 4), DivisorClass(x, y, z))
    assert calls == []
    assert type(vec) is CohomologyVector and vec._fields == ("h0", "h1", "h2", "h3")
    assert vec != ZERO_COHOMOLOGY and vec.chi == chi(ScrollParams(1, 2, 4), DivisorClass(x, y, z))


def test_strips_never_reach_the_scroll_layer(monkeypatch):
    # the strips never reach the scroll layer
    p = ScrollParams(1, 2, 4)
    strip = [DivisorClass(-1, y, z) for y in (-4, -1, 0, 3) for z in (-9, 0, 9)]
    strip += [DivisorClass(x, -1, z) for x in (-5, -2, 0, 4) for z in (-9, 0, 9)]
    strip += [serre_dual(p, d) for d in strip]

    def unreachable(*args):
        raise AssertionError(f"_h_scroll{args} asked for a strip class")

    monkeypatch.setattr(cohmod, "_h_scroll", unreachable)
    for d in strip:
        assert d.x == -1 or d.y == -1
        assert h_scroll(p, d) == ZERO_COHOMOLOGY


@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(-12, 12),
    st.booleans(),
    st.integers(-60, 60),
)
@settings(max_examples=200)
def test_strips_against_pushforward_loop(a, b, other, on_x_strip, z):
    x, y = (-1, other) if on_x_strip else (other, -1)
    p = ScrollParams(a, b, a + b + 1)
    assert h_scroll(p, DivisorClass(x, y, z)).as_tuple() == h_pushforward(a, b, x, y, z)


def test_three_families_match_the_pushforward_loop():
    # one family, another, the first's base swap and the first again, each
    # against the pushforward loop
    p, swap, other = ScrollParams(0, 1, 2), ScrollParams(1, 0, 2), ScrollParams(2, 3, 6)
    classes = [DivisorClass(x, y, z) for x in (-4, 0, 2) for y in (-3, 0, 3) for z in (-7, 0, 7)]
    for q in (p, other, swap, p):
        for c in classes:
            assert h_scroll(q, c).as_tuple() == h_pushforward(q.a, q.b, c.x, c.y, c.z)


def _verify_peak_kb(grid):
    """VmHWM of a fresh process that runs verify on grid x grid; ru_maxrss
    would read the parent's high-water mark, inherited across fork and exec."""
    code = (
        "import sys; from scroll_ulrich.cli import main; "
        "main(['verify', '--a', sys.argv[1], '--b', sys.argv[1], '--normalize']); "
        "print(*[l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')], "
        "file=sys.stderr)"
    )
    path = [str(Path(cohmod.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code, grid], env=env, capture_output=True, text=True, check=True
    )
    return int(out.stderr)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM, Linux only")
def test_verify_peak_memory_does_not_grow_with_the_grid():
    # verify keeps one sweep of failures per (a, b) and h_scroll keeps nothing,
    # so the peak holds the rows of the grid and little else
    assert _verify_peak_kb("0..6") - _verify_peak_kb("0..1") < 3 * 1024


def test_shared_vector_is_immutable():
    p, d = ScrollParams(0, 1, 2), DivisorClass(-4, 1, -3)
    v = h_scroll(p, d)
    with pytest.raises(AttributeError):
        v.h0 = v.h0 + 1
    assert h_scroll(p, d).as_tuple() == v.as_tuple() == h_pushforward(0, 1, -4, 1, -3)


def test_vector_helpers():
    v = CohomologyVector(1, 2, 3, 4)
    assert v.reversed().as_tuple() == (4, 3, 2, 1)
    assert v.chi == 1 - 2 + 3 - 4
    assert v != ZERO_COHOMOLOGY
