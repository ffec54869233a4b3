"""Cohomology of line bundles on the scroll.

Everything reduces to P^1 through the two projective-bundle projections.
For x >= 0 the pushforward of O(x, y, z) along the scroll map is the direct
sum of the O_{F_a}(y, z - jb) for 0 <= j <= x, and higher direct images
vanish, so the threefold cohomology lives in degrees 0..2 and is the sum of
the surface values.  The surface layer repeats the same argument over P^1.
Negative first coefficients are handled by Serre duality at the outermost
layer: each dualization lands the relevant coefficient in the non-negative
branch, so the recursion terminates after at most two steps.

The alternating sum of any h-vector equals half the closed polynomial

    2 chi(x, y, z) = (x+1)(y+1)(2z + 2 - bx - ay)      (twice_chi)

for *all* integer (x, y, z) (Riemann-Roch; Fulton, Intersection Theory,
Cor. 15.2.1).  twice_chi is the one spelling of this polynomial: the sieve of
ulrich.is_ulrich_line reads it, and `chi` halves it and never asks h_scroll, so
the O(r^2) chi sums of the tower report cost no cohomology.  Against the
h-vectors it is the strongest correctness oracle for the sign branches:
`verify` compares the two on every line of its cohomology box, and the
test suite exercises it heavily.

The surface layer is closed-form.  For alpha >= 0 the P^1 sums

    h0 = sum_{k=0}^{alpha} max(beta - k a + 1, 0)
    h1 = sum_{k=0}^{alpha} max(k a - beta - 1, 0)

are clipped arithmetic series (the second with k reversed), so each is
O(1), also for a = 0.  The scroll layer still sums over 0 <= j <= x: each
term depends on floor((z - j b + 1) / a), so the sum is a quasi-polynomial
in j rather than a polynomial.  One evaluation costs O(|x|) after Serre
normalisation, independent of y and z.

Nothing is memoized: h_scroll is a pure function of (params, div).
The strips x = -1 and y = -1 are answered before the scroll layer: each is a
relative O(-1) for one of the two scroll structures (X is also a P^1-bundle
over F_b, with x and y swapped), so all its cohomology vanishes and h_scroll
returns ZERO_COHOMOLOGY.  Serre duality maps x <= -2 to x >= 0 and keeps y
off -1, so the recursion never reaches a strip either, and the surface
layer never sees alpha = -1.
"""

from __future__ import annotations

from typing import NamedTuple

from .chow import DivisorClass, ScrollParams


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


def _h_surface(a: int, alpha: int, beta: int) -> tuple[int, int, int]:
    """h^i(F_a, O(alpha, beta)) in the (section, fibre) basis, for alpha != -1."""
    if alpha >= 0:
        # pushforward to P^1: the sum of O(beta - ka) for 0 <= k <= alpha
        n = alpha + 1
        return (_clipped_series(beta + 1, a, n), _clipped_series(alpha * a - beta - 1, a, n), 0)
    # Serre duality with K_{F_a} = (-2, -a-2); lands in the branch alpha >= 0
    d0, d1, d2 = _h_surface(a, -2 - alpha, -a - 2 - beta)
    return (d2, d1, d0)


def _h_scroll(a: int, b: int, x: int, y: int, z: int) -> CohomologyVector:
    """Any class off the strips x = -1 and y = -1."""
    if x >= 0:
        h0 = h1 = h2 = 0
        for j in range(x + 1):
            s0, s1, s2 = _h_surface(a, y, z - j * b)
            h0 += s0
            h1 += s1
            h2 += s2
        return CohomologyVector(h0, h1, h2, 0)
    # Serre duality with K_X = (-2, -2, -(a+b+2)); x <= -2, so the dual has x >= 0
    return _h_scroll(a, b, -2 - x, -2 - y, -(a + b + 2) - z).reversed()


def h_scroll(params: ScrollParams, div: DivisorClass) -> CohomologyVector:
    """h^i(X, O(x, y, z)) for any integer divisor class."""
    x, y = div.x, div.y
    if x == -1 or y == -1:
        return ZERO_COHOMOLOGY
    return _h_scroll(params.a, params.b, x, y, div.z)


def twice_chi(a: int, b: int, x: int, y: int, z: int) -> int:
    """2 chi(O(x, y, z)) on the scroll (a, b, *), by factored Riemann-Roch."""
    return (x + 1) * (y + 1) * (2 * z + 2 - b * x - a * y)


def chi(params: ScrollParams, div: DivisorClass) -> int:
    """Euler characteristic h0 - h1 + h2 - h3: half of twice_chi, which is even.

    Never asks h_scroll; `verify` certifies the polynomial against every h^i
    of the cohomology box (cohomology-chi-oracle).
    """
    a, b, _ = params
    x, y, z = div
    return twice_chi(a, b, x, y, z) // 2


def chi_closed_form(params: ScrollParams, div: DivisorClass) -> int:
    """The Riemann-Roch polynomial of chi(), under the name verify checks it by."""
    return chi(params, div)


def serre_dual(params: ScrollParams, div: DivisorClass) -> DivisorClass:
    """K_X - D = (-2 - x, -2 - y, -(a+b+2) - z)."""
    return params.canonical - div
