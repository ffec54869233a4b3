"""Ulrich line bundles on the scroll: predicate, involutions, classification.

A line bundle D is h-Ulrich when every cohomology group of D - jh vanishes
for j = 1, 2, 3.  Two involutions act on the set of Ulrich line bundles:

* the Ulrich dual  D  ->  K_X + 4h - D, and
* the base swap induced by the second scroll structure over F_b, which
  exchanges xi with C0 (and a with b) while fixing h.

The classification scans 0 <= x, y <= 2 and a finite z-window.  The x, y
bound is proved: Riemann-Roch factors as

    2 chi(x, y, z) = (x+1)(y+1)(2z + 2 - bx - ay),

so chi(D - jh) = 0 for j = 1, 2, 3 forces each j to be a root of one of the
three factors.  Each factor has at most one root in j (the last because
c >= a + b + 1), so each must have one, and the first two have one only when
0 <= x, y <= 2.  The same argument puts every Ulrich z at the root of the
last factor for some j, inside the window.  This module only scans; the
certificate of both bounds is `ulrich-scan-bounds` in verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chow import Codim2Class, DivisorClass, ScrollParams, triple
from .cohomology import h_scroll

TAG_N = "N"
TAG_N_DUAL = "N_dual"
TAG_L = "L"
TAG_L_DUAL = "L_dual"
TAG_M = "M"
TAG_M_DUAL = "M_dual"
TAG_OTHER = "other"

DUAL_TAG = {
    TAG_N: TAG_N_DUAL,
    TAG_N_DUAL: TAG_N,
    TAG_L: TAG_L_DUAL,
    TAG_L_DUAL: TAG_L,
    TAG_M: TAG_M_DUAL,
    TAG_M_DUAL: TAG_M,
    TAG_OTHER: TAG_OTHER,
}

# The base swap fixes the N pair and exchanges the L pair with the M pair.
SWAP_TAG = {
    TAG_N: TAG_N_DUAL,
    TAG_N_DUAL: TAG_N,
    TAG_L: TAG_M_DUAL,
    TAG_M_DUAL: TAG_L,
    TAG_L_DUAL: TAG_M,
    TAG_M: TAG_L_DUAL,
    TAG_OTHER: TAG_OTHER,
}


@dataclass(frozen=True)
class UlrichLineBundleRecord:
    """A classified Ulrich line bundle with its closed-form tag and dual."""

    divisor: DivisorClass
    tag: str
    special_pairing: DivisorClass  # its Ulrich dual


def is_ulrich_line(params: ScrollParams, div: DivisorClass) -> bool:
    """True iff h^*(D - jh) = 0 for j = 1, 2, 3."""
    for j in (1, 2, 3):
        if not h_scroll(params, div - j * params.h).is_zero():
            return False
    return True


def ulrich_dual(params: ScrollParams, div: DivisorClass) -> DivisorClass:
    """K_X + 4h - D; an involution on Ulrich line bundles (dim X = 3)."""
    return params.canonical + 4 * params.h - div


def base_swap(params: ScrollParams, div: DivisorClass) -> tuple[ScrollParams, DivisorClass]:
    """The same bundle in the F_b scroll structure: ((b, a, c), (y, x, z))."""
    return params.swapped(), DivisorClass(div.y, div.x, div.z)


def named_line_bundles(params: ScrollParams) -> dict[str, DivisorClass]:
    """Closed forms of the named Ulrich line bundles applicable to (a, b, c).

    N and its dual exist for all parameters; the L pair requires a = 0 and
    the M pair requires b = 0 (at a = b = 0 both pairs are present, six
    bundles in total; the M forms with b = 0 are the base-swapped L forms).
    """
    a, b, c = params.a, params.b, params.c
    forms = {
        TAG_N: DivisorClass(2, 0, 2 * c - a - 1),
        TAG_N_DUAL: DivisorClass(0, 2, 2 * c - b - 1),
    }
    if a == 0:
        forms[TAG_L] = DivisorClass(1, 0, 3 * c - b - 1)
        forms[TAG_L_DUAL] = DivisorClass(1, 2, c - 1)
    if b == 0:
        forms[TAG_M] = DivisorClass(2, 1, c - 1)
        forms[TAG_M_DUAL] = DivisorClass(0, 1, 3 * c - a - 1)
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
    by_triple = {d.as_tuple(): tag for tag, d in forms.items()}
    window = z_window(params)
    records = []
    for x in range(3):
        for y in range(3):
            for z in window:
                div = DivisorClass(x, y, z)
                if is_ulrich_line(params, div):
                    tag = by_triple.get(div.as_tuple(), TAG_OTHER)
                    records.append(UlrichLineBundleRecord(div, tag, ulrich_dual(params, div)))
    return records


def slope(params: ScrollParams, c1: DivisorClass, rank: int) -> Fraction:
    """mu = (c1 . h^2) / rank, exactly."""
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    return Fraction(triple(c1, params.h, params.h, params), rank)


def is_special_rank2(params: ScrollParams, c1: DivisorClass) -> bool:
    """True iff c1 equals K_X + 4h = (2, 2, 4c - a - b - 2)."""
    return c1 == params.canonical + 4 * params.h


@dataclass(frozen=True)
class ObstructionReport:
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
    swapped = c2_twisted.swapped()
    return ObstructionReport(
        from_base_a=c2_twisted.p != 0 or c2_twisted.q != 0,
        from_base_b=swapped.p != 0 or swapped.q != 0,
    )


def pullback_obstruction(params: ScrollParams, c2_twisted: Codim2Class) -> bool:
    """True iff the class cannot be a pullback from the F_a base."""
    return pullback_obstruction_report(c2_twisted).from_base_a
