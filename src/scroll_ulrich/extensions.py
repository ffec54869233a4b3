"""Rank-two extensions of Ulrich line bundles and their moduli bookkeeping.

An ordered pair (sub, quot) stands for extensions 0 -> sub -> F -> quot -> 0,
classified by Ext^1(quot, sub) = H^1(sub - quot).  The convention is fixed
once here; every record stores the pair explicitly.  Chern classes follow
Whitney: c1 = sub + quot, c2 = sub . quot, and the Euler characteristic of
End(F) is additive over the induced filtration,

    chi(F (x) F^dual) = 2 chi(O_X) + chi(sub - quot) + chi(quot - sub).

The h^2 of End(F) is *not* Chern-determined; it equals h^2(quot - sub) only
under the vanishing h^2(sub - quot) = 0 that the long-exact-sequence
argument needs, and is refused (typed error) outside that hypothesis.

Unordered pairs are numbered 1..15 and grouped into equivalence classes
under the two involutions (Ulrich dual, base swap); cases beyond the
representatives {1, 2, 3, 4, 8, 9} are generated from them by the
involution maps, never re-derived.  This module only computes: the records
are not self-verified; `scroll-ulrich verify` certifies their transport.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chow import Codim2Class, DivisorClass, ScrollParams, mul_div_div
from .cohomology import chi, h_scroll
from .ulrich import (
    TAG_OTHER,
    ObstructionReport,
    UlrichLineBundleRecord,
    is_special_rank2,
    named_line_bundles,
    pullback_obstruction_report,
)


class VanishingHypothesisError(ValueError):
    """h^2(sub - quot) != 0: the long-exact-sequence derivation does not apply."""


class InapplicableCaseError(ValueError):
    """The requested case involves line bundles that do not exist at these parameters."""


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

# Orbits of the case numbering under the two involutions.
CASE_ORBITS = (
    (1,),
    (2, 7),
    (3, 6, 12, 15),
    (4, 5, 13, 14),
    (8, 11),
    (9, 10),
)
ORBIT_REPRESENTATIVE = {k: orbit[0] for orbit in CASE_ORBITS for k in orbit}


@dataclass(frozen=True)
class Rank2ExtensionRecord:
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
    pullback_obstructed: bool  # cannot be a pullback from either base


@dataclass(frozen=True)
class ModuliPrediction:
    """Moduli-component prediction for one case of rank-two extensions."""

    case_id: int
    dimension_kind: str  # "exact" | "at_least_if_stable" | "point"
    dimension: int  # value, lower bound, or 0 for a point
    generically_smooth: bool | None  # None when conditional on stable points
    special: bool
    branch_note: str


@dataclass(frozen=True)
class InstantonTriple:
    """An admissible c2 triple (k1, k2, k3) of an instanton bundle."""

    k1: int
    k2: int
    k3: int
    case: str  # "alpha" | "beta" | "gamma"
    charge: int
    c2_after_twist: tuple[int, int, int]
    predicted_dim: int


def ext1_dim(params: ScrollParams, a: DivisorClass, b: DivisorClass) -> int:
    """ext^1(A, B) = h^1(B - A), the space of extensions 0 -> B -> F -> A -> 0."""
    return h_scroll(params, b - a).h1


def extension_chern(
    params: ScrollParams, sub: DivisorClass, quot: DivisorClass
) -> tuple[DivisorClass, Codim2Class]:
    """(c1, c2) of any extension of quot by sub: (sub + quot, sub . quot)."""
    return sub + quot, mul_div_div(sub, quot, params)


def twisted_chern(
    params: ScrollParams, c1: DivisorClass, c2: Codim2Class
) -> tuple[DivisorClass, Codim2Class]:
    """Chern classes of F(-h) for a rank-two F: (c1 - 2h, c2 - c1.h + h^2)."""
    h = params.h
    return c1 - 2 * h, c2 - mul_div_div(c1, h, params) + mul_div_div(h, h, params)


def chi_endomorphisms_rank2(
    params: ScrollParams, sub: DivisorClass, quot: DivisorClass
) -> int:
    """chi(F (x) F^dual) = 2 + chi(sub - quot) + chi(quot - sub)."""
    return 2 + chi(params, sub - quot) + chi(params, quot - sub)


def h2_endomorphisms_rank2(
    params: ScrollParams, sub: DivisorClass, quot: DivisorClass
) -> int:
    """h^2(F (x) F^dual) = h^2(quot - sub), valid only if h^2(sub - quot) = 0."""
    blocking = h_scroll(params, sub - quot).h2
    if blocking != 0:
        raise VanishingHypothesisError(
            f"h^2(sub - quot) = {blocking} != 0 for sub={sub.as_tuple()}, "
            f"quot={quot.as_tuple()} at {params}"
        )
    return h_scroll(params, quot - sub).h2


def build_extension_record(
    params: ScrollParams,
    sub: DivisorClass,
    quot: DivisorClass,
    sub_tag: str,
    quot_tag: str,
) -> Rank2ExtensionRecord:
    c1, c2 = extension_chern(params, sub, quot)
    c1_tw, c2_tw = twisted_chern(params, c1, c2)
    try:
        h2_endo = h2_endomorphisms_rank2(params, sub, quot)
    except VanishingHypothesisError:
        h2_endo = None
    report = pullback_obstruction_report(c2_tw)
    return Rank2ExtensionRecord(
        sub=sub,
        quotient=quot,
        sub_tag=sub_tag,
        quot_tag=quot_tag,
        case_id=CASE_OF_PAIR[frozenset({sub_tag, quot_tag})],
        ext_dim=ext1_dim(params, quot, sub),
        c1=c1,
        c2=c2,
        chi_endo=chi_endomorphisms_rank2(params, sub, quot),
        h2_endo=h2_endo,
        special=is_special_rank2(params, c1),
        c1_twisted=c1_tw,
        c2_twisted=c2_tw,
        obstruction=report,
        pullback_obstructed=report.from_both,
    )


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
    named = [r for r in bundles if r.tag != TAG_OTHER]
    records = [
        build_extension_record(params, s.divisor, q.divisor, s.tag, q.tag)
        for s in named
        for q in named
        if s.divisor != q.divisor
    ]
    records.sort(key=lambda r: (r.case_id, r.sub.as_tuple(), r.quotient.as_tuple()))
    return records


def _case_divisors(params: ScrollParams, case_id: int) -> tuple[DivisorClass, DivisorClass]:
    if case_id not in PAIR_OF_CASE:
        raise InapplicableCaseError(f"unknown case id {case_id}")
    forms = named_line_bundles(params)
    pair = sorted(PAIR_OF_CASE[case_id])
    missing = [t for t in pair if t not in forms]
    if missing:
        raise InapplicableCaseError(
            f"case {case_id} needs {missing} which do not exist at {params}"
        )
    return forms[pair[0]], forms[pair[1]]


_CONDITIONAL_NOTE = (
    "if the component contains stable points: dim >= 5 and the general member "
    "is slope-stable and special; otherwise the component is the single "
    "S-equivalence point of the polystable split bundle"
)


def moduli_prediction(params: ScrollParams, case_id: int) -> ModuliPrediction:
    """Predicted moduli component for the given case at these parameters.

    Cases outside the representative set {1, 2, 3, 4, 8, 9} are resolved
    through their involution orbit (the base swap exchanges a and b).
    """
    d1, d2 = _case_divisors(params, case_id)
    special = is_special_rank2(params, d1 + d2)
    rep = ORBIT_REPRESENTATIVE[case_id]
    a, b, c = params.a, params.b, params.c

    if rep == 1:
        lo, hi = min(a, b), max(a, b)
        if hi <= 1:
            note = "general member slope-stable and special"
            if lo == hi == 0:
                note += "; component rational"
            return ModuliPrediction(case_id, "exact", 5, True, special, note)
        return ModuliPrediction(
            case_id, "at_least_if_stable", 5, None, special, _CONDITIONAL_NOTE
        )

    if rep == 2:
        # Case 2 needs the F_a structure with a = 0; case 7 is its swap image.
        b_eff = b if case_id == 2 else a
        dim = 4 * (2 * c - b_eff) - 3
        return ModuliPrediction(
            case_id,
            "exact",
            dim,
            True,
            special,
            "component rational; general member slope-stable and special",
        )

    if rep == 9:
        return ModuliPrediction(
            case_id,
            "point",
            0,
            None,
            special,
            "no non-trivial extensions in either direction; only the split bundle",
        )

    # reps 3, 4, 8: strictly semistable extensions collapse under S-equivalence
    note = "all extensions strictly semistable; GIT contracts them to the split bundle"
    if ext1_dim(params, d1, d2) == 0 and ext1_dim(params, d2, d1) == 0:
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
