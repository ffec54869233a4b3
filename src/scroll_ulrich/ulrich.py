"""Ulrich line bundles on the scroll: predicate, involutions, classification.

A line bundle D is h-Ulrich when every cohomology group of D - jh vanishes
for j = 1, 2, 3.  Two involutions act on the set of Ulrich line bundles:

* the Ulrich dual  D  ->  K_X + 4h - D, and
* the base swap induced by the second scroll structure over F_b, which
  exchanges xi with C0 (and a with b) while fixing h.

The classification scans 0 <= x, y <= 2 and a finite z-window.  The x, y
bound is proved: Riemann-Roch factors as

    2 chi(x, y, z) = (x+1)(y+1)(2z + 2 - bx - ay)      (cohomology.twice_chi),

so chi(D - jh) = 0 for j = 1, 2, 3 forces each j to be a root of one of the
three factors.  Each factor has at most one root in j (the last because
c >= a + b + 1), so each must have one, and the first two have one only when
0 <= x, y <= 2.  The same argument puts every Ulrich z at the root of the
last factor for some j, inside the window.  The predicate uses the same
vanishing as a sieve: a class with some chi(D - jh) != 0 is rejected from
twice_chi alone, so h_scroll sees only the classes where all three vanish,
a number that does not depend on c.  This module only scans; the
certificate of both bounds is `ulrich-scan-bounds` in verify.py, and
`cohomology-chi-oracle` there certifies twice_chi against every h^i that the
sieve stands in for.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chow import Codim2Class, DivisorClass, ScrollParams, _new, mul_div_c2
from .cohomology import ZERO_COHOMOLOGY, h_scroll, twice_chi

DUAL_TAG = {
    "N": "N_dual",
    "N_dual": "N",
    "L": "L_dual",
    "L_dual": "L",
    "M": "M_dual",
    "M_dual": "M",
    "other": "other",
}

# The base swap fixes the N pair and exchanges the L pair with the M pair.
SWAP_TAG = {
    "N": "N_dual",
    "N_dual": "N",
    "L": "M_dual",
    "M_dual": "L",
    "L_dual": "M",
    "M": "L_dual",
    "other": "other",
}


class UlrichLineBundleRecord(NamedTuple):
    """A classified Ulrich line bundle with its closed-form tag and dual."""

    divisor: DivisorClass
    tag: str
    special_pairing: DivisorClass  # its Ulrich dual


def is_ulrich_line(params: ScrollParams, div: DivisorClass) -> bool:
    """True iff h^*(D - jh) = 0 for j = 1, 2, 3.

    Builds D - jh from the coordinates of D (h = xi + C0 + cF).  The sieve
    comes first: an Ulrich D has chi(D - jh) = 0 for each j, so a nonzero
    twice_chi rejects D before any class is built.  Only the survivors ask
    h_scroll, which stops at the first nonzero vector.
    """
    a, b, c = params
    x, y, z = div
    for j in (1, 2, 3):
        if twice_chi(a, b, x - j, y - j, z - j * c):
            return False
    for j in (1, 2, 3):
        if h_scroll(params, _new(DivisorClass, (x - j, y - j, z - j * c))) != ZERO_COHOMOLOGY:
            return False
    return True


def ulrich_dual(params: ScrollParams, div: DivisorClass) -> DivisorClass:
    """K_X + 4h - D; an involution on Ulrich line bundles (dim X = 3)."""
    return params.kx4h - div


def base_swap(params: ScrollParams, div: DivisorClass) -> tuple[ScrollParams, DivisorClass]:
    """The same bundle in the F_b scroll structure: ((b, a, c), (y, x, z))."""
    return params.swapped(), div.swapped()


def named_line_bundles(params: ScrollParams) -> dict[str, DivisorClass]:
    """Closed forms of the named Ulrich line bundles applicable to (a, b, c).

    N and its dual exist for all parameters; the L pair requires a = 0 and
    the M pair requires b = 0 (at a = b = 0 both pairs are present, six
    bundles in total; the M forms with b = 0 are the base-swapped L forms).
    """
    a, b, c = params.a, params.b, params.c
    forms = {
        "N": DivisorClass(2, 0, 2 * c - a - 1),
        "N_dual": DivisorClass(0, 2, 2 * c - b - 1),
    }
    if a == 0:
        forms["L"] = DivisorClass(1, 0, 3 * c - b - 1)
        forms["L_dual"] = DivisorClass(1, 2, c - 1)
    if b == 0:
        forms["M"] = DivisorClass(2, 1, c - 1)
        forms["M_dual"] = DivisorClass(0, 1, 3 * c - a - 1)
    return forms


def expected_count(params: ScrollParams) -> int:
    """2 / 4 / 6 according to how many of a, b vanish."""
    return 2 + 2 * (params.a == 0) + 2 * (params.b == 0)


def z_window(params: ScrollParams) -> range:
    """The classification scan window for the F coefficient."""
    a, b, c = params.a, params.b, params.c
    return range(-(a + b + 2) - 3 * c - 2, 4 * c + a + b + 2 + 1)


def classify_ulrich_line_bundles(params: ScrollParams) -> list[UlrichLineBundleRecord]:
    """The Ulrich line bundles on (X, h), tagged, in (x, y, z) order.

    Exhaustive scan over 0 <= x, y <= 2 and the z-window; `scroll-ulrich
    verify` certifies that no Ulrich bundle lies outside it.
    """
    forms = named_line_bundles(params)
    by_triple = {d: tag for tag, d in forms.items()}
    window = z_window(params)
    records = []
    for x in range(3):
        for y in range(3):
            for z in window:
                div = _new(DivisorClass, (x, y, z))
                if is_ulrich_line(params, div):
                    tag = by_triple.get(div, "other")
                    records.append(UlrichLineBundleRecord(div, tag, ulrich_dual(params, div)))
    return records


def slope(params: ScrollParams, c1: DivisorClass, rank: int) -> Fraction:
    """mu = (c1 . h^2) / rank, exactly."""
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    return Fraction(mul_div_c2(c1, params.h_squared, params), rank)


def is_special_rank2(params: ScrollParams, c1: DivisorClass) -> bool:
    """True iff c1 equals K_X + 4h = (2, 2, 4c - a - b - 2)."""
    return c1 == params.kx4h


class ObstructionReport(NamedTuple):
    """Pullback obstructions for a twisted second Chern class.

    A bundle of the form h (x) phi^*(F) has c2 of the twist by -h supported
    on C0.F alone, so a nonzero xi.C0 or xi.F coefficient obstructs pullback
    along the scroll map to F_a; the F_b test reads the class through the
    basis swap (p, q, r) -> (p, r, q).
    """

    from_base_a: bool
    from_base_b: bool

    @property
    def from_both(self) -> bool:
        return self.from_base_a and self.from_base_b


def pullback_obstruction_report(c2_twisted: Codim2Class) -> ObstructionReport:
    """(from_base_a, from_base_b): the F_b test reads (p, r, q), the swapped class."""
    p, q, r = c2_twisted
    return _new(ObstructionReport, (p != 0 or q != 0, p != 0 or r != 0))
