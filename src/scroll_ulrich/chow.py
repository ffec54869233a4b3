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

DivisorClass and Codim2Class are NamedTuples sharing one arithmetic
(_class_arithmetic): +, -, unary - and integer scaling on either side, never
tuple concatenation or repetition, each result a class of the same kind.
As tuples they compare equal to the plain tuple of their coefficients, so
DivisorClass(1, 2, 3) == Codim2Class(1, 2, 3).  ScrollParams is a
validating NamedTuple too, so ScrollParams(1, 2, 4) == (1, 2, 4).

The hot loops of the package (this module's products, the h-vectors of
cohomology, the classification scan of ulrich, verify's sweep and rows) share
one idiom.  They build a NamedTuple by `tuple.__new__(cls, values)`, because
the NamedTuple's own __new__ is a Python-level call (285 ns a class against
169 ns; timeit, CPython 3.11.7 on a Xeon core).  They read a class, a vector
or the parameters by tuple unpacking, `x, y, z = div`, because a read by
field name goes through a descriptor that CPython 3.11 does not specialise
(three reads 57 ns, one unpacking 45 ns).  Where a class is only read, they
build none: the chi sums over a filtration pass twice_chi the three
differences as ints, not a class or a tuple per term.
Neither changes a value.  Code off the hot paths keeps the NamedTuple
constructors and the field names; so does ScrollParams, whose constructor
validates.

ScrollParams keeps the classes every cell reads again, each built once per
instance on first use: h, canonical, kx4h = K_X + 4h and h_squared = h.h.
ulrich.ulrich_dual, ulrich.is_special_rank2 and verify's involution transport
read kx4h, which no other module spells; ulrich.slope reads h_squared.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from typing import NamedTuple


class _Params(NamedTuple):
    a: int
    b: int
    c: int


class ScrollParams(_Params):
    """The triple (a, b, c) fixing X and its polarization h = xi + C0 + cF.

    Constraints: a, b >= 0 and c >= a + b + 1 (very-ampleness of h).
    `h`, `canonical`, `kx4h` and `h_squared` are built on first use and kept
    in the instance __dict__ that this subclass of the (a, b, c) tuple has;
    equality and hashing read only (a, b, c).
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

    @cached_property
    def kx4h(self) -> "DivisorClass":
        """K_X + 4h = (2, 2, 4c - a - b - 2), the twist of the Ulrich dual; spelled here only."""
        return self.canonical + 4 * self.h

    @cached_property
    def h_squared(self) -> "Codim2Class":
        """h.h, the class that slope pairs c1 with."""
        return mul_div_div(self.h, self.h, self)

    def swapped(self) -> "ScrollParams":
        """Parameters of the second scroll structure, over F_b."""
        return ScrollParams(self.b, self.a, self.c)


_new = tuple.__new__  # the hot paths' constructor: see the module docstring


def _class_arithmetic(cls):
    """Give the NamedTuple `cls` +, -, unary -, integer scaling and as_tuple.

    Results are built by tuple.__new__ on the bound `cls`, as the NamedTuple's
    __new__ and _make do.  Never for ScrollParams: it validates.
    """

    def __add__(self, other):
        x, y, z = self
        u, v, w = other
        return _new(cls, (x + u, y + v, z + w))

    def __sub__(self, other):
        x, y, z = self
        u, v, w = other
        return _new(cls, (x - u, y - v, z - w))

    def __neg__(self):
        x, y, z = self
        return _new(cls, (-x, -y, -z))

    def __mul__(self, n: int):
        x, y, z = self
        return _new(cls, (n * x, n * y, n * z))

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)

    cls.__add__, cls.__sub__, cls.__neg__ = __add__, __sub__, __neg__
    cls.__mul__ = cls.__rmul__ = __mul__
    cls.as_tuple = as_tuple
    return cls


@_class_arithmetic
class DivisorClass(NamedTuple):
    """x*xi + y*C0 + z*F with integer coefficients."""

    x: int
    y: int
    z: int

    def swapped(self) -> "DivisorClass":
        """The same class in the basis of the F_b scroll structure: xi <-> C0, F fixed."""
        x, y, z = self
        return _new(DivisorClass, (y, x, z))


@_class_arithmetic
class Codim2Class(NamedTuple):
    """p*xi.C0 + q*xi.F + r*C0.F with integer coefficients."""

    p: int
    q: int
    r: int

    def swapped(self) -> "Codim2Class":
        """The same class in the basis of the F_b scroll structure.

        Under xi <-> C0, F <-> F the basis maps as xi.C0 -> xi.C0 and
        xi.F <-> C0.F, so the coefficients (p, q, r) become (p, r, q).
        """
        p, q, r = self
        return _new(Codim2Class, (p, r, q))


def mul_div_div(d1: DivisorClass, d2: DivisorClass, params: ScrollParams) -> Codim2Class:
    """Product of two divisor classes, reduced to the (xi.C0, xi.F, C0.F) basis.

    Bilinear expansion followed by the relations xi^2 = -b xi.F,
    C0^2 = -a C0.F and F^2 = 0.
    """
    a, b, _ = params
    x1, y1, z1 = d1
    x2, y2, z2 = d2
    return _new(Codim2Class, (
        x1 * y2 + y1 * x2,
        x1 * z2 + z1 * x2 - b * x1 * x2,
        y1 * z2 + z1 * y2 - a * y1 * y2,
    ))


def mul_div_c2(d: DivisorClass, s: Codim2Class, params: ScrollParams) -> int:
    """Pairing of a divisor class with a codimension-2 class, as a degree.

    The only nonzero pairings of basis elements are

        xi.(xi.C0) = -b,  xi.(C0.F) = 1,
        C0.(xi.C0) = -a,  C0.(xi.F) = 1,
        F.(xi.C0)  =  1,

    everything else pairs to zero.  The result is the coefficient of the
    point class xi.C0.F.
    """
    a, b, _ = params
    x, y, z = d
    p, q, r = s
    return x * (-b * p + r) + y * (-a * p + q) + z * p


def triple(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass, params: ScrollParams) -> int:
    """Symmetric trilinear intersection number d1.d2.d3."""
    return mul_div_c2(d1, mul_div_div(d2, d3, params), params)


_ZERO_C2 = Codim2Class(0, 0, 0)


def whitney(
    params: ScrollParams, quotients: Iterable[DivisorClass]
) -> Iterator[tuple[DivisorClass, Codim2Class, int]]:
    """(c1, c2, c3) of a bundle filtered by line bundles, after each quotient.

    Whitney (Fulton, Intersection Theory, Thm. 3.2(e)): c is the product of the
    1 + q over the quotients; after the first, q steps c3 += q.c2, c2 += c1.q, c1 += q.
    The second step meets c2 = 0, so it takes no c3 product: a rank-two fold
    pairs no divisor with a codimension-2 class.
    """
    quotients = iter(quotients)
    c1 = next(quotients, None)
    if c1 is None:
        return
    yield c1, _ZERO_C2, 0  # c = 1 + q for the first
    q = next(quotients, None)
    if q is None:
        return
    c2, c3 = mul_div_div(c1, q, params), 0
    c1 += q
    yield c1, c2, c3
    for q in quotients:
        c3 += mul_div_c2(q, c2, params)
        c2 += mul_div_div(c1, q, params)
        c1 += q
        yield c1, c2, c3


def numerical_invariants(params: ScrollParams) -> tuple[int, int, int]:
    """(n, d, g): ambient dimension, degree and sectional genus of (X, h).

    n = 4c - 2a - 2b + 3, d = 3(2c - a - b), g = 2c - a - b - 1.  `verify`
    compares n with h^0(h) - 1 (`chow-ambient-dim`), d with the Chow-ring h^3
    (`chow-degree`) and g with adjunction (`chow-sectional-genus`).
    """
    a, b, c = params
    n = 4 * c - 2 * a - 2 * b + 3
    d = 3 * (2 * c - a - b)
    g = 2 * c - a - b - 1
    return n, d, g
