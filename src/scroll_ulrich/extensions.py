"""Rank-two extensions of Ulrich line bundles and their moduli bookkeeping.

An ordered pair (sub, quot) stands for extensions 0 -> sub -> F -> quot -> 0,
classified by Ext^1(quot, sub) = H^1(sub - quot).  The convention is fixed
once here; every record stores the pair explicitly.  Like the tower, F is
filtered by line bundles: chow.whitney folds its Chern classes over (sub,
quot), and those of F(-h) over (sub - h, quot - h); chi(End F), additive
over the filtration, stays the O(r^2) pair sum of cohomology.chi_filtered,

    chi(F (x) F^dual) = 2 chi(O_X) + chi(sub - quot) + chi(quot - sub),

whose terms add twice_chi of each difference and halve the total once.

The h^2 of End(F) is *not* Chern-determined; it equals h^2(quot - sub) only
under the vanishing h^2(sub - quot) = 0 that the long-exact-sequence
argument needs, and is refused outside that hypothesis: the record stores
None there.  enumerate_cases evaluates the cohomology of each difference
class sub - quot once, and each record reads ext^1 and h^2(End F) off the
vectors of sub - quot and quot - sub.  moduli_predictions computes nothing
again: the prediction of a case reads the two ordered records of its pair.

Unordered pairs are numbered 1..15 and grouped into orbits under the two
involutions (Ulrich dual, base swap).  The orbits are derived at import from
the tag involutions DUAL_TAG and SWAP_TAG acting on the case numbering;
cases beyond the representatives {1, 2, 3, 4, 8, 9}, the least case of each
orbit, are resolved through their orbit, never re-derived.  This module only
computes: the records are not self-verified; `scroll-ulrich verify`
certifies their transport.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .chow import Codim2Class, DivisorClass, ScrollParams, _new, whitney
from .cohomology import CohomologyVector, chi_filtered, h_scroll
from .ulrich import (
    DUAL_TAG,
    SWAP_TAG,
    ObstructionReport,
    UlrichLineBundleRecord,
    is_special_rank2,
    pullback_obstruction_report,
)


# Unordered tag pairs <-> the case numbering of the fifteen pairs.
CASE_OF_PAIR = {
    frozenset({"N", "N_dual"}): 1,
    frozenset({"L", "L_dual"}): 2,
    frozenset({"L", "N"}): 3,
    frozenset({"L", "N_dual"}): 4,
    frozenset({"L_dual", "N"}): 5,
    frozenset({"L_dual", "N_dual"}): 6,
    frozenset({"M", "M_dual"}): 7,
    frozenset({"L", "M"}): 8,
    frozenset({"L", "M_dual"}): 9,
    frozenset({"L_dual", "M"}): 10,
    frozenset({"L_dual", "M_dual"}): 11,
    frozenset({"N", "M"}): 12,
    frozenset({"N", "M_dual"}): 13,
    frozenset({"N_dual", "M"}): 14,
    frozenset({"N_dual", "M_dual"}): 15,
}
PAIR_OF_CASE = {k: v for v, k in CASE_OF_PAIR.items()}
# Ordered tag pairs -> case: both orders of each pair, so a record builds no frozenset.
_CASE_OF_TAGS = {(s, q): case for pair, case in CASE_OF_PAIR.items() for s in pair for q in pair
                 if s != q}


def _image(tags: dict[str, str], case: int) -> int:
    """The case of the pair whose tags are the images of `case`'s tags."""
    return CASE_OF_PAIR[frozenset(tags[t] for t in PAIR_OF_CASE[case])]


def _orbit(case: int) -> tuple[int, ...]:
    """{k, s(k), d(k), d(s(k))}, sorted: the two involutions commute on tags."""
    swapped = {case, _image(SWAP_TAG, case)}
    return tuple(sorted(swapped | {_image(DUAL_TAG, k) for k in swapped}))


# Orbits of the case numbering under the two involutions, by least case.
CASE_ORBITS = tuple(sorted({_orbit(case) for case in PAIR_OF_CASE}))
ORBIT_REPRESENTATIVE = {k: orbit[0] for orbit in CASE_ORBITS for k in orbit}


class Rank2ExtensionRecord(NamedTuple):
    """Full invariant dossier of an ordered Ulrich line-bundle pair."""

    sub: DivisorClass
    quotient: DivisorClass
    sub_tag: str
    quot_tag: str
    case_id: int
    ext_dim: int  # ext^1(quotient, sub)
    c1: DivisorClass
    c2: Codim2Class
    chi_endo: int
    h2_endo: int | None  # None when the vanishing hypothesis fails
    special: bool
    c1_twisted: DivisorClass
    c2_twisted: Codim2Class
    obstruction: ObstructionReport


class ModuliPrediction(NamedTuple):
    """Moduli-component prediction for one case of rank-two extensions.

    `branch_note` is prose: no verify row reads it, and only the golden
    digest of `ext-table` pins its text.
    """

    case_id: int
    dimension_kind: str  # "exact" | "at_least_if_stable" | "point"
    dimension: int  # value, lower bound, or 0 for a point
    generically_smooth: bool | None  # None when conditional on stable points
    special: bool
    branch_note: str


class InstantonTriple(NamedTuple):
    """An admissible c2 triple (k1, k2, k3) of an instanton bundle."""

    k1: int
    k2: int
    k3: int
    case: str  # "alpha" | "beta" | "gamma"
    charge: int
    c2_after_twist: tuple[int, int, int]
    predicted_dim: int


def build_extension_record(
    params: ScrollParams,
    sub: DivisorClass,
    quot: DivisorClass,
    sub_tag: str,
    quot_tag: str,
    sub_minus_quot: CohomologyVector,
    quot_minus_sub: CohomologyVector,
) -> Rank2ExtensionRecord:
    """The record of (sub, quot); the last two are h_scroll of sub - quot and quot - sub.

    Built positionally by tuple.__new__, the idiom of chow's docstring, in the
    field order of Rank2ExtensionRecord.
    """
    h = params.h
    pair = (sub, quot)
    *_, (c1, c2, _) = whitney(params, pair)
    *_, (c1_tw, c2_tw, _) = whitney(params, (sub - h, quot - h))  # F(-h)
    _, ext_dim, h2_sub_quot, _ = sub_minus_quot  # ext^1(quot, sub) = h^1(sub - quot)
    return _new(Rank2ExtensionRecord, (
        sub,
        quot,
        sub_tag,
        quot_tag,
        _CASE_OF_TAGS[sub_tag, quot_tag],
        ext_dim,
        c1,
        c2,
        chi_filtered(params, pair, sub) + chi_filtered(params, pair, quot),
        # h^2(End F) = h^2(quot - sub), where h^2(sub - quot) vanishes
        quot_minus_sub.h2 if h2_sub_quot == 0 else None,
        is_special_rank2(params, c1),
        c1_tw,
        c2_tw,
        pullback_obstruction_report(c2_tw),
    ))


def enumerate_cases(
    params: ScrollParams, bundles: list[UlrichLineBundleRecord]
) -> list[Rank2ExtensionRecord]:
    """All ordered pairs of distinct named Ulrich line bundles, sorted by case.

    `bundles` is the classification of `params`, i.e.
    `classify_ulrich_line_bundles(params)`; the caller computes it once and
    may reuse it.  A bundle tagged "other" has no case number and is left
    out; `scroll-ulrich verify` reports it (`ulrich-no-unnamed`).  Pure: the
    check `ext-involution-orbits` certifies the case set and the transport
    along both involutions.
    """
    named = [r for r in bundles if r.tag != "other"]
    pairs = [(s, q) for s in named for q in named if s.divisor != q.divisor]
    # h_scroll of each difference class once: (s, q) and (q, s) read the same
    # two vectors, and two pairs may differ by the same class
    vectors = {d: h_scroll(params, d) for d in {s.divisor - q.divisor for s, q in pairs}}
    records = [
        build_extension_record(
            params, s.divisor, q.divisor, s.tag, q.tag,
            vectors[s.divisor - q.divisor], vectors[q.divisor - s.divisor],
        )
        for s, q in pairs
    ]
    records.sort(key=itemgetter(4, 0, 1))  # (case_id, sub, quotient)
    return records


_CONDITIONAL_NOTE = (
    "if the component contains stable points: dim >= 5 and the general member "
    "is slope-stable and special; otherwise the component is the single "
    "S-equivalence point of the polystable split bundle"
)


def moduli_predictions(
    params: ScrollParams, records: list[Rank2ExtensionRecord]
) -> list[ModuliPrediction]:
    """The predicted moduli component of each case of `records`, sorted by case.

    `records` is enumerate_cases of `params`.  Each prediction reads its
    case's two ordered records: chi_endo, special, and the ext_dim of both
    directions.  Cases outside the representative set {1, 2, 3, 4, 8, 9} are
    resolved through their involution orbit (the base swap exchanges a and b).
    """
    by_case: dict[int, list[Rank2ExtensionRecord]] = {}
    for r in records:
        by_case.setdefault(r.case_id, []).append(r)
    return [_prediction(params, case_id, pair) for case_id, pair in sorted(by_case.items())]


def _prediction(
    params: ScrollParams, case_id: int, pair: list[Rank2ExtensionRecord]
) -> ModuliPrediction:
    special = pair[0].special
    rep = ORBIT_REPRESENTATIVE[case_id]

    if rep in (1, 2):
        # the expected dimension of a simple F (h^0 = 1, h^3 = 0 of End F):
        # h^1 - h^2 = 1 - chi(End F)
        dim = 1 - pair[0].chi_endo
        if rep == 2:
            note = "component rational; general member slope-stable and special"
            return ModuliPrediction(case_id, "exact", dim, True, special, note)
        if max(params.a, params.b) > 1:
            return ModuliPrediction(
                case_id, "at_least_if_stable", dim, None, special, _CONDITIONAL_NOTE
            )
        note = "general member slope-stable and special"
        if params.a == params.b == 0:
            note += "; component rational"
        return ModuliPrediction(case_id, "exact", dim, True, special, note)

    if rep == 9:
        note = "no non-trivial extensions in either direction; only the split bundle"
        return ModuliPrediction(case_id, "point", 0, None, special, note)

    # reps 3, 4, 8: strictly semistable extensions collapse under S-equivalence
    note = "all extensions strictly semistable; GIT contracts them to the split bundle"
    if all(r.ext_dim == 0 for r in pair):
        note = "both extension spaces vanish; only the split bundle occurs"
    return ModuliPrediction(case_id, "point", 0, None, special, note)


def instanton_admissible(c: int) -> list[InstantonTriple]:
    """All non-negative (k1, k2, k3) with k1 + k2 + c*k3 = 2c, partitioned.

    alpha: k3 = 2 forces k1 = k2 = 0 (covered by case 1, dim 5);
    beta:  k3 = 1, k1 + k2 = c, predicted dim 4(c+1) - 3;
    gamma: k3 = 0, k1 + k2 = 2c, predicted dim 8c - 3.

    The twist carrying the instanton to an Ulrich bundle shifts c2 by
    (4c-2, 4c-2, 2).
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")

    def make(k1: int, k2: int, k3: int, case: str, dim: int) -> InstantonTriple:
        return InstantonTriple(
            k1=k1,
            k2=k2,
            k3=k3,
            case=case,
            charge=k1 + k2 + k3,
            c2_after_twist=(k1 + 4 * c - 2, k2 + 4 * c - 2, k3 + 2),
            predicted_dim=dim,
        )

    triples = [make(0, 0, 2, "alpha", 5)]
    triples += [make(k1, c - k1, 1, "beta", 4 * (c + 1) - 3) for k1 in range(c + 1)]
    triples += [make(k1, 2 * c - k1, 0, "gamma", 8 * c - 3) for k1 in range(2 * c + 1)]
    return triples
