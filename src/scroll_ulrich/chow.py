"""Exact intersection theory on the threefold scroll X = P_{F_a}(O + O(0,-b)).

Pic(X) is free on the tautological class xi and the pullbacks C0, F of the
section and fibre classes of the Hirzebruch surface F_a.  The Chow ring is
determined by

    xi^2 = -b xi.F,    C0^2 = -a C0.F,    F^2 = 0,

together with the top-degree products

    xi.C0.F = 1,   xi^2.C0 = -b,   xi.C0^2 = -a,

and every other triple product of generators vanishing (xi^2.F = xi.F^2 = 0
and, forced by the relations above, C0^2.F = C0.F^2 = 0).

All arithmetic is exact over the integers; Python integers never overflow,
so the checked-width concern of a fixed-size implementation does not arise.

DivisorClass and Codim2Class are NamedTuples with class arithmetic: +, -,
unary - and integer scaling on either side, never tuple concatenation or
repetition.  As tuples they compare equal to the plain tuple of their
coefficients, so DivisorClass(1, 2, 3) == Codim2Class(1, 2, 3).  ScrollParams
is a validating NamedTuple too, so ScrollParams(1, 2, 4) == (1, 2, 4).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple


class _Params(NamedTuple):
    a: int
    b: int
    c: int


class ScrollParams(_Params):
    """The triple (a, b, c) fixing X and its polarization h = xi + C0 + cF.

    Constraints: a, b >= 0 and c >= a + b + 1 (very-ampleness of h).
    `h` and `canonical` are built on first use and kept in the instance
    __dict__ that this subclass of the (a, b, c) tuple has; equality and
    hashing read only (a, b, c).
    """

    def __new__(cls, a: int, b: int, c: int) -> "ScrollParams":
        if a < 0 or b < 0:
            raise ValueError(f"need a >= 0 and b >= 0, got (a, b) = ({a}, {b})")
        if c < a + b + 1:
            raise ValueError(f"h is very ample only for c >= a+b+1: c = {c} < {a + b + 1}")
        return super().__new__(cls, a, b, c)

    @classmethod
    def _make(cls, iterable) -> "ScrollParams":
        # the tuple's _make, and so _replace, would skip the checks above
        return cls(*iterable)

    @cached_property
    def h(self) -> "DivisorClass":
        """The hyperplane class xi + C0 + cF."""
        return DivisorClass(1, 1, self.c)

    @cached_property
    def canonical(self) -> "DivisorClass":
        """K_X = -2 xi - 2 C0 - (a+b+2) F."""
        return DivisorClass(-2, -2, -(self.a + self.b + 2))

    def swapped(self) -> "ScrollParams":
        """Parameters of the second scroll structure, over F_b."""
        return ScrollParams(self.b, self.a, self.c)


class DivisorClass(NamedTuple):
    """x*xi + y*C0 + z*F with integer coefficients."""

    x: int
    y: int
    z: int

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.x, -self.y, -self.z)

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(n * self.x, n * self.y, n * self.z)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


class Codim2Class(NamedTuple):
    """p*xi.C0 + q*xi.F + r*C0.F with integer coefficients."""

    p: int
    q: int
    r: int

    def __add__(self, other: "Codim2Class") -> "Codim2Class":
        return Codim2Class(self.p + other.p, self.q + other.q, self.r + other.r)

    def __sub__(self, other: "Codim2Class") -> "Codim2Class":
        return Codim2Class(self.p - other.p, self.q - other.q, self.r - other.r)

    def __neg__(self) -> "Codim2Class":
        return Codim2Class(-self.p, -self.q, -self.r)

    def __mul__(self, n: int) -> "Codim2Class":
        return Codim2Class(n * self.p, n * self.q, n * self.r)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)

    def swapped(self) -> "Codim2Class":
        """The same class in the basis of the F_b scroll structure.

        Under xi <-> C0, F <-> F the basis maps as xi.C0 -> xi.C0 and
        xi.F <-> C0.F, so the coefficients (p, q, r) become (p, r, q).
        """
        return Codim2Class(self.p, self.r, self.q)


def mul_div_div(d1: DivisorClass, d2: DivisorClass, params: ScrollParams) -> Codim2Class:
    """Product of two divisor classes, reduced to the (xi.C0, xi.F, C0.F) basis.

    Bilinear expansion followed by the relations xi^2 = -b xi.F,
    C0^2 = -a C0.F and F^2 = 0.
    """
    a, b = params.a, params.b
    p = d1.x * d2.y + d1.y * d2.x
    q = d1.x * d2.z + d1.z * d2.x - b * d1.x * d2.x
    r = d1.y * d2.z + d1.z * d2.y - a * d1.y * d2.y
    return Codim2Class(p, q, r)


def mul_div_c2(d: DivisorClass, s: Codim2Class, params: ScrollParams) -> int:
    """Pairing of a divisor class with a codimension-2 class, as a degree.

    The only nonzero pairings of basis elements are

        xi.(xi.C0) = -b,  xi.(C0.F) = 1,
        C0.(xi.C0) = -a,  C0.(xi.F) = 1,
        F.(xi.C0)  =  1,

    everything else pairs to zero.  The result is the coefficient of the
    point class xi.C0.F.
    """
    a, b = params.a, params.b
    return (
        d.x * (-b * s.p + s.r)
        + d.y * (-a * s.p + s.q)
        + d.z * s.p
    )


def triple(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass, params: ScrollParams) -> int:
    """Symmetric trilinear intersection number d1.d2.d3."""
    return mul_div_c2(d1, mul_div_div(d2, d3, params), params)


def numerical_invariants(params: ScrollParams) -> tuple[int, int, int]:
    """(n, d, g): ambient dimension, degree and sectional genus of (X, h).

    n = 4c - 2a - 2b + 3, d = 3(2c - a - b), g = 2c - a - b - 1.  The degree
    is not recomputed here; `verify` compares it with the Chow-ring h^3
    (`chow-degree`) and the genus with adjunction (`chow-sectional-genus`).
    """
    a, b, c = params.a, params.b, params.c
    n = 4 * c - 2 * a - 2 * b + 3
    d = 3 * (2 * c - a - b)
    g = 2 * c - a - b - 1
    return n, d, g
