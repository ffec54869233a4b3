"""Cohomology of line bundles on the scroll.

Everything reduces to P^1 through the two projective-bundle projections,
and each class is normalised once.  A class with x <= -2 is replaced by its
Serre dual K_X - D, which has x >= 0, and the vector is read backwards.  For
x >= 0 the pushforward of O(x, y, z) along the scroll map is the direct sum
of the O_{F_a}(y, z - jb) for 0 <= j <= x, and higher direct images vanish,
so the cohomology lives in degrees 0..2 and is the sum of the surface values.
Every term has alpha = y, so the F_a step is taken once per class: for
y <= -2 each term is read through its Serre dual on F_a, which has alpha >= 0.

The alternating sum of any h-vector equals half the closed polynomial

    2 chi(x, y, z) = (x+1)(y+1)(2z + 2 - bx - ay)      (twice_chi)

for *all* integer (x, y, z) (Riemann-Roch; Fulton, Intersection Theory,
Cor. 15.2.1).  twice_chi is the one spelling of this polynomial, and it
never asks h_scroll: the sieve of ulrich.is_ulrich_line reads it, `chi`
halves it, and chi_filtered, the O(r^2) chi sums of the tower report, adds
it up.  chi_filtered unpacks the parameters and its line once, adds
twice_chi of each difference q - line and halves the total once; that is
exact because twice_chi is even for every integer input (if x and y are both
even, so is bx + ay).  A term of those sums builds no tuple and no class.
Against the h-vectors the polynomial is the strongest correctness oracle for
the sign branches: `verify` compares `chi` with them on every line of its
cohomology box, and the test suite exercises it heavily.

The surface layer is closed-form.  For alpha >= 0 the P^1 sums

    h0 = sum_{k=0}^{alpha} max(beta - k a + 1, 0)
    h1 = sum_{k=0}^{alpha} max(k a - beta - 1, 0)

are clipped arithmetic series (the second with k reversed), so each is
O(1), also for a = 0.  For alpha <= -2 Serre duality with K_{F_a} =
(-2, -a-2) gives h2 and h1 as the h0 and h1 of O(-2 - alpha, -a - 2 - beta).
The scroll layer still sums over 0 <= j <= x: each term depends on
floor((z - j b + 1) / a), so the sum is a quasi-polynomial in j rather than
a polynomial.  One evaluation is one loop of x + 1 steps after
normalisation, two series each, independent of y and z.

Nothing is memoized: h_scroll is a pure function of (params, div).
The strips x = -1 and y = -1 are answered before the scroll layer: each is a
relative O(-1) for one of the two scroll structures (X is also a P^1-bundle
over F_b, with x and y swapped), so all its cohomology vanishes and h_scroll
returns ZERO_COHOMOLOGY.  Both Serre steps keep the class off the strips,
so the surface layer never sees alpha = -1.  h_scroll reads the class and the
parameters by unpacking and builds its vector from one 4-tuple by
tuple.__new__, the idiom of the hot loops that chow's docstring states.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .chow import DivisorClass, ScrollParams, _new


class CohomologyVector(NamedTuple):
    """The four dimensions (h0, h1, h2, h3), all non-negative."""

    h0: int
    h1: int
    h2: int
    h3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)

    def reversed(self) -> "CohomologyVector":
        """(h3, h2, h1, h0); the Serre-dual ordering."""
        return CohomologyVector(self.h3, self.h2, self.h1, self.h0)

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2 - self.h3


ZERO_COHOMOLOGY = CohomologyVector(0, 0, 0, 0)


def _clipped_series(c: int, step: int, n: int) -> int:
    """sum_{k=0}^{n-1} max(c - k step, 0) for step >= 0.

    The positive terms are the first m = min(n, ceil(c / step)) ones (all n
    when step = 0), and they form an arithmetic series.
    """
    if c <= 0:
        return 0
    m = n if step == 0 else min(n, -(-c // step))
    return m * c - step * (m * (m - 1) // 2)


def _h_scroll(a: int, b: int, x: int, y: int, z: int) -> CohomologyVector:
    """Any class off the strips x = -1 and y = -1."""
    dual = x < 0
    if dual:
        # Serre duality with K_X = (-2, -2, -(a+b+2)); x <= -2, so the dual has x >= 0
        x, y, z = -2 - x, -2 - y, -(a + b + 2) - z
    # the terms O(y, z - jb), 0 <= j <= x, all have alpha = y, so one branch serves them
    if y >= 0:
        alpha, beta0, step = y, z, -b
    else:
        # Serre duality on F_a, K = (-2, -a-2): a term's h^2 and h^1 are the h^0
        # and h^1 of O(-2 - y, -a - 2 - z + jb), so `top` collects h^2 here
        alpha, beta0, step = -2 - y, -a - 2 - z, b
    n = alpha + 1
    top = h1 = 0
    for j in range(x + 1):
        beta = beta0 + j * step
        top += _clipped_series(beta + 1, a, n)
        h1 += _clipped_series(alpha * a - beta - 1, a, n)
    if y >= 0:
        h = (0, 0, h1, top) if dual else (top, h1, 0, 0)
    else:
        h = (0, top, h1, 0) if dual else (0, h1, top, 0)
    return _new(CohomologyVector, h)


def h_scroll(params: ScrollParams, div: DivisorClass) -> CohomologyVector:
    """h^i(X, O(x, y, z)) for any integer divisor class."""
    x, y, z = div
    if x == -1 or y == -1:
        return ZERO_COHOMOLOGY
    a, b, _ = params
    return _h_scroll(a, b, x, y, z)


def twice_chi(a: int, b: int, x: int, y: int, z: int) -> int:
    """2 chi(O(x, y, z)) on the scroll (a, b, *), by factored Riemann-Roch."""
    return (x + 1) * (y + 1) * (2 * z + 2 - b * x - a * y)


def chi(params: ScrollParams, div: tuple[int, int, int]) -> int:
    """Euler characteristic h0 - h1 + h2 - h3 of O(x, y, z): half of twice_chi, which is even.

    `div` is any (x, y, z) triple, a DivisorClass or a plain tuple; it is read
    by unpacking.  Never asks h_scroll; `verify` certifies the polynomial
    against every h^i of the cohomology box (cohomology-chi-oracle).
    """
    a, b, _ = params
    x, y, z = div
    return twice_chi(a, b, x, y, z) // 2


def chi_filtered(
    params: ScrollParams, quotients: Iterable[DivisorClass], line: DivisorClass
) -> int:
    """chi(E (x) line^dual) for E filtered by `quotients`: additive, sum of chi(q - line).

    `params` and `line` are unpacked once.  Each term adds twice_chi of the
    difference q - line, and the total is halved once: every term is even, so
    the halving is exact.  A term builds no tuple and no DivisorClass.
    """
    a, b, _ = params
    lx, ly, lz = line
    total = 0
    for x, y, z in quotients:
        total += twice_chi(a, b, x - lx, y - ly, z - lz)
    return total // 2


def chi_closed_form(params: ScrollParams, div: DivisorClass) -> int:
    """chi() under a second public name, which bench/child.py imports.

    The CLI's `cohom` prints it as its `chi_closed_form` column; the library and
    `verify` call chi itself.
    """
    return chi(params, div)


def serre_dual(params: ScrollParams, div: DivisorClass) -> DivisorClass:
    """K_X - D = (-2 - x, -2 - y, -(a+b+2) - z)."""
    return params.canonical - div
