"""Intersection-theory kernel: frozen examples and ring axioms.

The independent oracle multiplies monomials in the free ring Z[xi, C0, F]
and rewrites with xi^2 -> -b xi.F, C0^2 -> -a C0.F, F^2 -> 0 until only
square-free monomials remain; the sole degree-3 survivor xi.C0.F evaluates
to 1.  This re-derives every product the closed-form kernel hard-codes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll_ulrich import (
    Codim2Class,
    DivisorClass,
    ScrollParams,
    mul_div_c2,
    mul_div_div,
    numerical_invariants,
    triple,
    whitney,
)

GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]


def _reduce(poly, a, b):
    # poly: {(i, j, k): coeff} for xi^i C0^j F^k
    work = dict(poly)
    done = {}
    while work:
        (i, j, k), coeff = work.popitem()
        if coeff == 0:
            continue
        if k >= 2:
            continue
        if i >= 2:
            key = (i - 1, j, k + 1)
            work[key] = work.get(key, 0) - b * coeff
        elif j >= 2:
            key = (i, j - 1, k + 1)
            work[key] = work.get(key, 0) - a * coeff
        else:
            done[(i, j, k)] = done.get((i, j, k), 0) + coeff
    return done


def _oracle_product(divs, params):
    poly = {(0, 0, 0): 1}
    for d in divs:
        new = {}
        for (i, j, k), coeff in poly.items():
            for delta, m in (((1, 0, 0), d.x), ((0, 1, 0), d.y), ((0, 0, 1), d.z)):
                if m:
                    key = (i + delta[0], j + delta[1], k + delta[2])
                    new[key] = new.get(key, 0) + coeff * m
        poly = _reduce(new, params.a, params.b)
    return poly


def oracle_mul_div_div(d1, d2, params):
    poly = _oracle_product([d1, d2], params)
    return Codim2Class(
        poly.get((1, 1, 0), 0), poly.get((1, 0, 1), 0), poly.get((0, 1, 1), 0)
    )


def oracle_triple(d1, d2, d3, params):
    return _oracle_product([d1, d2, d3], params).get((1, 1, 1), 0)


divisors = st.builds(
    DivisorClass,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-30, 30),
)
params_st = st.sampled_from([ScrollParams(*cell) for cell in GRID])


def test_xi_squared():
    p = ScrollParams(0, 2, 3)
    xi = DivisorClass(1, 0, 0)
    assert mul_div_div(xi, xi, p) == Codim2Class(0, -2, 0)


def test_basis_products():
    p = ScrollParams(1, 3, 5)
    xi, c0, f = DivisorClass(1, 0, 0), DivisorClass(0, 1, 0), DivisorClass(0, 0, 1)
    assert mul_div_div(xi, c0, p) == Codim2Class(1, 0, 0)
    assert mul_div_c2(xi, Codim2Class(1, 0, 0), p) == -3
    assert mul_div_c2(f, Codim2Class(1, 0, 0), p) == 1
    assert mul_div_c2(c0, Codim2Class(0, 0, 1), p) == 0


def test_h_squared_on_segre():
    p = ScrollParams(0, 0, 1)
    assert mul_div_div(p.h, p.h, p) == Codim2Class(2, 2, 2)


def test_degree_and_fiber():
    p = ScrollParams(1, 1, 3)
    assert triple(p.h, p.h, p.h, p) == 12
    f = DivisorClass(0, 0, 1)
    assert triple(f, f, DivisorClass(5, -3, 7), p) == 0


def test_sectional_genus_identity():
    p = ScrollParams(0, 1, 2)
    assert triple(p.canonical + 2 * p.h, p.h, p.h, p) == 2


@pytest.mark.parametrize(
    "cell,expected",
    [((0, 0, 1), (7, 6, 1)), ((0, 1, 2), (9, 9, 2)), ((1, 1, 3), (11, 12, 3))],
)
def test_numerical_invariants(cell, expected):
    assert numerical_invariants(ScrollParams(*cell)) == expected


def test_params_validation():
    with pytest.raises(ValueError):
        ScrollParams(-1, 0, 3)
    with pytest.raises(ValueError, match=r"need a >= 0 and b >= 0, got \(a, b\) = \(-1, 0\)"):
        ScrollParams(-1, 0, 1)
    with pytest.raises(ValueError):
        ScrollParams(0, -2, 3)
    with pytest.raises(ValueError, match="h is very ample only for c >= a\\+b\\+1: c = 2 < 3"):
        ScrollParams(1, 1, 2)
    with pytest.raises(ValueError):
        ScrollParams(a=1, b=1, c=2)


def test_params_are_a_frozen_tuple():
    p = ScrollParams(1, 2, 4)
    with pytest.raises(AttributeError):
        p.c = 9
    assert p.c == 4 and p.h == DivisorClass(1, 1, 4)
    # a NamedTuple, like DivisorClass: equal to the plain tuple, same hash
    assert p == (1, 2, 4) and hash(p) == hash((1, 2, 4))
    assert repr(p) == "ScrollParams(a=1, b=2, c=4)" and type(p.swapped()) is ScrollParams
    # _replace goes through the checks and builds its own h
    with pytest.raises(ValueError):
        p._replace(c=3)
    assert p._replace(c=5).h == DivisorClass(1, 1, 5)


def test_tuple_backed_classes_keep_class_semantics():
    d, e = DivisorClass(1, 2, 3), DivisorClass(-4, 0, 5)
    assert 2 * d == d * 2 == d + d == DivisorClass(2, 4, 6)
    assert type(2 * d) is type(d * 2) is type(d + d) is DivisorClass
    assert -d == DivisorClass(-1, -2, -3) and d - e == DivisorClass(5, 2, -2)
    assert repr(d) == "DivisorClass(x=1, y=2, z=3)"
    s, t = Codim2Class(1, 2, 3), Codim2Class(0, -1, 7)
    assert 3 * s == s * 3 == s + s + s == Codim2Class(3, 6, 9)
    assert -s == Codim2Class(-1, -2, -3) and s - t == Codim2Class(1, 3, -4)
    assert s.swapped() == Codim2Class(1, 3, 2) and type(s.swapped()) is Codim2Class
    assert d.swapped() == DivisorClass(2, 1, 3) and type(d.swapped()) is DivisorClass
    assert repr(s) == "Codim2Class(p=1, q=2, r=3)"
    with pytest.raises(AttributeError):
        d.x = 0
    with pytest.raises(AttributeError):
        s.q = 0
    assert hash(d) == hash(DivisorClass(1, 2, 3)) and {d: "d"}[DivisorClass(1, 2, 3)] == "d"
    assert hash(s) == hash(Codim2Class(1, 2, 3))
    # the one change from the dataclass form: equality is by coefficients alone
    assert d == (1, 2, 3) == s and d.as_tuple() == s.as_tuple() == (1, 2, 3)
    # verify's failure details print this value
    assert all(type(t) is tuple and repr(t) == "(1, 2, 3)" for t in (d.as_tuple(), s.as_tuple()))


codim2 = st.builds(Codim2Class, st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99))


@given(st.one_of(st.tuples(divisors, divisors), st.tuples(codim2, codim2)), st.integers(-9, 9))
def test_arithmetic_builds_fresh_instances_of_its_class(pair, n):
    # the operators skip the constructor; their results must not show it
    u, v = pair
    cls = type(u)
    for got, want in (
        (u + v, [s + t for s, t in zip(u, v)]),
        (u - v, [s - t for s, t in zip(u, v)]),
        (-u, [-s for s in u]),
        (n * u, [n * s for s in u]),
        (u * n, [n * s for s in u]),
    ):
        fresh = cls(*want)
        assert type(got) is cls
        assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
        assert got._fields == fresh._fields and got._asdict() == fresh._asdict()


def test_products_skip_the_constructor(constructor_calls):
    # mul_div_div builds its class by tuple.__new__, as the class arithmetic does
    calls = constructor_calls(Codim2Class)
    s = mul_div_div(DivisorClass(1, 2, 3), DivisorClass(-4, 0, 5), ScrollParams(1, 2, 4))
    assert calls == []
    assert type(s) is Codim2Class and repr(s) == "Codim2Class(p=-8, q=1, r=10)"


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 9)))
def test_params_still_validate_every_route(abc):
    a, b, c = abc
    if a >= 0 and b >= 0 and c >= a + b + 1:
        assert ScrollParams(a, b, c) == ScrollParams._make(abc) == abc
    else:
        with pytest.raises(ValueError):
            ScrollParams(a, b, c)
        with pytest.raises(ValueError):
            ScrollParams._make(abc)


def test_derived_classes_are_kept_and_leave_equality_alone():
    p = ScrollParams(1, 2, 4)
    assert p.h is p.h and p.canonical is p.canonical
    assert p.h == DivisorClass(1, 1, 4) and p.canonical == DivisorClass(-2, -2, -5)
    fresh = ScrollParams(1, 2, 4)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert {fresh: "x"}[p] == "x"


@given(divisors, divisors, params_st)
def test_product_matches_rewriting_oracle(d1, d2, p):
    assert mul_div_div(d1, d2, p) == oracle_mul_div_div(d1, d2, p)


@given(divisors, divisors, divisors, params_st)
@settings(max_examples=60)
def test_triple_matches_rewriting_oracle(d1, d2, d3, p):
    assert triple(d1, d2, d3, p) == oracle_triple(d1, d2, d3, p)


@given(divisors, divisors, params_st)
def test_product_symmetric(d1, d2, p):
    assert mul_div_div(d1, d2, p) == mul_div_div(d2, d1, p)


@given(divisors, divisors, divisors, params_st)
def test_product_bilinear(d1, d2, d3, p):
    lhs = mul_div_div(d1 + d2, d3, p)
    rhs = mul_div_div(d1, d3, p) + mul_div_div(d2, d3, p)
    assert lhs == rhs
    assert mul_div_div(3 * d1, d3, p) == 3 * mul_div_div(d1, d3, p)


@given(divisors, divisors, divisors, params_st)
@settings(max_examples=60)
def test_triple_fully_symmetric(d1, d2, d3, p):
    import itertools

    values = {
        triple(x, y, z, p) for x, y, z in itertools.permutations([d1, d2, d3])
    }
    assert len(values) == 1


@given(st.lists(divisors, max_size=5), params_st)
@settings(max_examples=60)
def test_whitney_fold_matches_the_rewriting_oracle(quotients, p):
    # after k quotients, c_i is the i-th elementary symmetric function of them
    from itertools import combinations

    steps = list(whitney(p, quotients))
    assert len(steps) == len(quotients)
    for k, (c1, c2, c3) in enumerate(steps, start=1):
        qs = quotients[:k]
        assert c1 == (sum(q.x for q in qs), sum(q.y for q in qs), sum(q.z for q in qs))
        pairs = [oracle_mul_div_div(u, v, p) for u, v in combinations(qs, 2)]
        assert c2 == tuple(sum(col) for col in zip((0, 0, 0), *pairs))
        assert c3 == sum(oracle_triple(u, v, w, p) for u, v, w in combinations(qs, 3))


def test_degree_and_genus_on_grid():
    for cell in GRID:
        p = ScrollParams(*cell)
        a, b, c = cell
        assert triple(p.h, p.h, p.h, p) == 3 * (2 * c - a - b)
        g = 2 * c - a - b - 1
        assert triple(p.canonical + 2 * p.h, p.h, p.h, p) == 2 * g - 2
