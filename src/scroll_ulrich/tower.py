"""Iterated alternating extensions of the N pair and their invariants.

G_1 = N^U and each G_r sits in 0 -> G_{r-1} -> G_r -> Q_r -> 0, where the
quotient Q_r alternates: N^U for odd r, N for even r.  G_r is filtered by
Q_1, ..., Q_r and reads the rules the rank-two records read: its Chern
classes are the Whitney fold chow.whitney over the quotients, so
`iter_tower` yields G_1, ..., G_rmax in one pass, one step per rank, and its
chi sums are cohomology.chi_filtered, each term the Riemann-Roch polynomial:
chi(End G_r) stays the O(r^2) pair sum, with no grouping by multiplicity,
and asks no cohomology.  Each term adds twice_chi of the difference and the
sum is halved once, so a term builds no tuple and no class.  `_quotients` is
the one place that spells the alternation of the quotients.

This module computes and does not check itself: the closed forms in r of
the Chern classes, of the chi ladders (-r-2 / -r against the next quotient,
-r+2 / -r against the last, -r^2+2 / -r^2 for End) and of the h^1 sequence
3, 3, 5, 5, 7, ... live in `verify.run_tower_checks`, which certifies the
Chern closed forms for all (a, b, c, r).

Only the two h^1 seeds of `tower_h1_recursion` read h_scroll, once per cell
whatever r_max is.  The chi closed forms and the h^1 sequence hold under the
hypothesis 0 <= a <= b <= 1, where h^1 of both differences of the N pair
equals 3.  Individual h^i of End(G_r) are not Chern-determined and are not
computed; the h^1 sequence is conditional on the vanishing statements used
by its long-exact-sequence derivation.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .chow import Codim2Class, DivisorClass, ScrollParams, whitney
from .cohomology import chi_filtered, h_scroll


class TowerBundle(NamedTuple):
    """Rank and Chern classes of G_r."""

    rank: int
    c1: DivisorClass
    c2: Codim2Class
    c3: int


def in_tower_hypothesis(params: ScrollParams) -> bool:
    return 0 <= params.a <= params.b <= 1


def tower_pair(params: ScrollParams) -> tuple[DivisorClass, DivisorClass]:
    """(script_N_1, script_N_2) = (N^U, N) = ((0, 2, 2c - b - 1), (2, 0, 2c - a - 1)).

    The two forms of ulrich.named_line_bundles that every (a, b, c) has, built
    without the others.
    """
    a, b, c = params
    return DivisorClass(0, 2, 2 * c - b - 1), DivisorClass(2, 0, 2 * c - a - 1)


def _quotients(params: ScrollParams, r: int) -> tuple[DivisorClass, ...]:
    """Q_1, ..., Q_r: N^U for odd i, N for even i."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    pair = tower_pair(params)
    return tuple(pair[i % 2] for i in range(r))


def iter_tower(params: ScrollParams, r_max: int) -> Iterator[TowerBundle]:
    """G_1, ..., G_{r_max}, one Whitney step per rank; ValueError on iteration if r_max < 1."""
    for r, (c1, c2, c3) in enumerate(whitney(params, _quotients(params, r_max)), start=1):
        yield TowerBundle(rank=r, c1=c1, c2=c2, c3=c3)


def chi_tower_vs_line(params: ScrollParams, r: int, target: DivisorClass) -> int:
    """chi(G_r (x) target^dual), additive over the filtration."""
    return chi_filtered(params, _quotients(params, r), target)


def chi_endo_tower(params: ScrollParams, r: int) -> int:
    """chi(G_r (x) G_r^dual), the r^2 pair sum; 1 - chi(End G_r) is the deformation count."""
    quotients = _quotients(params, r)
    return sum(chi_filtered(params, quotients, t) for t in quotients)


def tower_h1_recursion(params: ScrollParams, r_max: int) -> list[int]:
    """The sequence h^1(G_r (x) Q_{r+1}^dual) for r = 1..r_max.

    Generated by the descending recursion seeded at h^1(N^U - N): the step
    h^1(G_r (x) Q_r^dual) = s_{r-1} - 1 feeds the extension sequence of G_r,
    giving s_r = s_{r-2} - 1 + h^1(N - N^U).  Conditional on the
    higher-degree vanishing used by the derivation.
    """
    if not in_tower_hypothesis(params):
        raise ValueError(f"h^1 recursion requires 0 <= a <= b <= 1, got {params}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")

    n_dual, n = tower_pair(params)
    seed = h_scroll(params, n_dual - n).h1
    step = h_scroll(params, n - n_dual).h1
    # s_2 = h^1(G_1 (x) Q_1^dual) + step, and h^1(G_1 (x) Q_1^dual) = h^1(O_X) = 0
    values = [seed, step]
    while len(values) < r_max:
        values.append(values[-2] - 1 + step)  # decrement, then the extension step
    return values[:r_max]


def moduli_dim_tower(r: int) -> int:
    """dim M(r): r^2 - 1 for odd r (0 at r = 1, a singleton), r^2 + 1 for even r."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return r * r - 1 if r % 2 else r * r + 1


def moduli_dim_gap(r: int) -> int:
    """The strict-containment margin dim M(r) - dim M(r-1) + 1 - s_{r-1}.

    Evaluates to r + 1 for even r and r - 2 for odd r >= 3; positivity is
    what makes the extension locus a proper subscheme at every step.
    """
    if r < 2:
        raise ValueError(f"gap needs r >= 2, got {r}")
    return r - 2 if r % 2 else r + 1
