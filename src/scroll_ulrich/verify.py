"""Grid verification: replays every numeric claim the library is built on.

Each check returns rows (a, b, c, check, status, detail); the CLI verify
command renders them and sets the exit code.  A claim of one part is one
`check` or `equal` row; a claim of many parts is a generator of failure
messages, which `_Collector.first` turns into one row that fails with the
first message, so a defect fails a row and never stops the run.  Cell
checks run per parameter triple, one cell after another in one process; the
fixed-grid checks (cohomology box at representative parameters, tower,
instanton) run once.  The cohomology box reads (a, b) and not c, so the CLI
sweeps it once per (a, b) (`cohomology_failures`), and every cell and
representative row of that family reads its first failures from that sweep
while the cohomology cache still holds the family.

The library computes and this module checks.  These live only here: the
O(1) certificate that the classification scan misses no Ulrich bundle,
both its x, y bound and its z-window (`ulrich-scan-bounds`, with the one
copy of the L_j root), the involution transport of the extension records
(`ext-involution-orbits`), and the closed forms of the extension tower
with their certificate (`tower-closed-forms`, with the one copy of the
h^1 closed form).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .chow import Codim2Class, DivisorClass, ScrollParams, mul_div_div, numerical_invariants, triple
from .cohomology import chi_closed_form, h_scroll, serre_dual
from .extensions import (
    CASE_OF_PAIR,
    ORBIT_REPRESENTATIVE,
    Rank2ExtensionRecord,
    VanishingHypothesisError,
    chi_endomorphisms_rank2,
    enumerate_cases,
    ext1_dim,
    extension_chern,
    h2_endomorphisms_rank2,
    instanton_admissible,
    moduli_prediction,
    pullback_obstruction_report,
    twisted_chern,
)
from .tower import (
    chi_endo_tower,
    chi_tower_vs_line,
    iter_tower,
    moduli_dim_gap,
    moduli_dim_tower,
    tower_h1_recursion,
    tower_pair,
)
from .ulrich import (
    DUAL_TAG,
    SWAP_TAG,
    UlrichLineBundleRecord,
    base_swap,
    classify_ulrich_line_bundles,
    expected_count,
    is_ulrich_line,
    named_line_bundles,
    slope,
    ulrich_dual,
    z_window,
)

Bundles = list[UlrichLineBundleRecord]
Records = list[Rank2ExtensionRecord]
Failures = list[tuple[str, DivisorClass]]  # (check, class) of the cohomology box

REPRESENTATIVE_PARAMS = (
    (0, 0, 1),
    (0, 1, 2),
    (0, 2, 4),
    (1, 1, 3),
    (1, 2, 4),
    (2, 3, 6),
)


class CheckResult(NamedTuple):
    a: int
    b: int
    c: int
    check: str
    ok: bool
    detail: str

    def row(self) -> list:
        return [self.a, self.b, self.c, self.check, "pass" if self.ok else "FAIL", self.detail]


class _Collector:
    def __init__(self, a: int, b: int, c: int):
        self.cell = (a, b, c)
        self.results: list[CheckResult] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(*self.cell, name, bool(ok), detail))

    def equal(self, name: str, got, want):
        self.check(name, got == want, f"got {got}, want {want}" if got != want else "")

    def first(self, name: str, failures: Iterable[str]):
        """One row for a claim of many parts; reads `failures` up to its first message."""
        detail = next(iter(failures), "")
        self.check(name, not detail, detail)


def _l_root(params: ScrollParams, x: int, y: int, j: int) -> int:
    """The root in z of L_j (verify_scan_bounds), rounded down at a half-integer."""
    a, b, c = params.a, params.b, params.c
    return (b * x + a * y - 2 - j * (a + b - 2 * c)) // 2


def verify_scan_bounds(params: ScrollParams) -> bool:
    """Certify in O(1), whatever c is, that the classification scan is complete.

    2 chi(D - jh) factors as (x-j+1)(y-j+1) L_j with L_j = 2z + 2 - bx - ay
    + j(a+b-2c).  L_j moves by a+b-2c != 0 per step of j, so it vanishes for
    at most one j, as do the other two factors; an Ulrich D needs all three
    j, so 0 <= x, y <= 2 and z is the root of L_j for some j.  The window:
    2 root = 2jc - 2 + b(x - j) + a(y - j), and with c >= a + b + 1 every
    root lies in [0, 3c - 1], strictly inside z_window = [-3c - a - b - 4,
    4c + a + b + 2].  Checked here: the factorization against
    chi_closed_form at 4 points per variable, the nonzero step, each of the
    27 roots for 0 <= x, y <= 2 strictly inside z_window, and is_ulrich_line
    rejecting the L_j root of each border row for j = 1, 2, 3: 36 calls.
    """
    a, b, c = params.a, params.b, params.c
    grid = range(4)
    factored = all(
        2 * chi_closed_form(params, DivisorClass(x, y, z))
        == (x + 1) * (y + 1) * (2 * z + 2 - b * x - a * y)
        for x in grid for y in grid for z in grid
    )
    window = z_window(params)
    inside = all(
        window.start < _l_root(params, x, y, j) < window.stop - 1
        for x in range(3) for y in range(3) for j in (1, 2, 3)
    )
    border = [(x, y) for x in (-1, 3) for y in range(3)]
    border += [(x, y) for y in (-1, 3) for x in range(3)]
    return factored and a + b - 2 * c != 0 and inside and not any(
        is_ulrich_line(params, DivisorClass(x, y, _l_root(params, x, y, j)))
        for x, y in border for j in (1, 2, 3)
    )


def _classification_checks(col: _Collector, params: ScrollParams, records: Bundles):
    _, d, g = numerical_invariants(params)
    col.equal("ulrich-count", len(records), expected_count(params))
    col.check("ulrich-no-unnamed", all(r.tag != "other" for r in records),
              str([r.divisor.as_tuple() for r in records if r.tag == "other"]))

    forms = named_line_bundles(params)
    col.equal(
        "ulrich-closed-forms",
        {r.tag: r.divisor.as_tuple() for r in records},
        {tag: div.as_tuple() for tag, div in forms.items()},
    )

    divisors = {r.divisor for r in records}
    for r in records:
        dual = ulrich_dual(params, r.divisor)
        col.check("ulrich-duality-closure", dual in divisors,
                  f"dual of {r.divisor.as_tuple()} missing")
        col.equal("ulrich-dual-involution",
                  ulrich_dual(params, dual), r.divisor)
        col.equal("ulrich-dual-tag", forms.get(DUAL_TAG[r.tag]), dual)
        col.equal("ulrich-h0-degree", h_scroll(params, r.divisor).h0, d)
        col.equal("ulrich-slope", slope(params, r.divisor, 1), Fraction(d + g - 1))
        sw_params, sw_div = base_swap(params, r.divisor)
        col.check("ulrich-swap-invariance", is_ulrich_line(sw_params, sw_div),
                  f"{r.divisor.as_tuple()} not Ulrich after swap")
        col.equal("ulrich-swap-involution",
                  base_swap(sw_params, sw_div), (params, r.divisor))
    col.check("ulrich-scan-bounds", verify_scan_bounds(params))


def _chow_checks(col: _Collector, params: ScrollParams):
    _, _, g = numerical_invariants(params)
    h = params.h
    col.equal("chow-degree", triple(h, h, h, params), 3 * (2 * params.c - params.a - params.b))
    col.equal("chow-sectional-genus",
              triple(params.canonical + 2 * h, h, h, params), 2 * g - 2)


# The four claims of the cohomology box, each with the start of its failure detail.
_COHOMOLOGY_CLAIMS = (
    ("cohomology-chi-oracle", "chi mismatch"),
    ("cohomology-serre-duality", "serre mismatch"),
    ("cohomology-vanishing-strip", "strip violated"),
    ("cohomology-degree-bounds", "degree bound violated"),
)

_REPRESENTATIVE_FAMILIES = {(a, b) for a, b, _ in REPRESENTATIVE_PARAMS}


def _walls(a: int, b: int, x: int, y: int) -> tuple[int, int]:
    """The least and the greatest z where some h^i of the line (x, y, *) changes slope."""
    if x == -1 or y == -1:
        return 0, 0
    if x <= -2:  # the walls of the Serre-dual line, mapped back
        lo, hi = _walls(a, b, -2 - x, -2 - y)
        return -(a + b + 2) - hi, -(a + b + 2) - lo
    if y >= 0:
        return -1, x * b + y * a - 1
    return (y + 1) * a - 1, x * b - a - 1


def cohomology_failures(params: ScrollParams) -> Failures:
    """Every failure (check, class) of the box, in (x, y, z) order.

    The box: the lines (x, y) with |x|, |y| <= 3 (5 for a family of
    REPRESENTATIVE_PARAMS), each at lo - 1 <= z <= hi + 1 for (lo, hi) =
    _walls(a, b, x, y).  Certificate that the claims hold at every integer z,
    whatever c is.  For x, y >= 0, h^0 and h^1 sum max(+-(z - jb - ka + 1), 0)
    over 0 <= j <= x, 0 <= k <= y, and h^2 = h^3 = 0, so each h^i changes slope
    only at the walls z = jb + ka - 1; Serre duality on F_a (y <= -2) and on X
    (x <= -2, z -> -(a+b+2) - z) gives the other branches of _walls, and the
    strips are zero.  So off [lo, hi] every h^i of the line and of its Serre
    image is affine in z, as chi_closed_form is: an equality at lo - 1 and lo
    (hi and hi + 1) holds on the whole ray, and so does h^i >= 0 where h^i does
    not decrease outward, which the degree-bounds row checks at each outer point.
    """
    a, b = params.a, params.b
    reach = 5 if (a, b) in _REPRESENTATIVE_FAMILIES else 3
    failures = []
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            lo, hi = _walls(a, b, x, y)
            for z in range(lo - 1, hi + 2):
                div = DivisorClass(x, y, z)
                vec = h_scroll(params, div)
                h0, h1, h2, h3 = vec
                if h0 - h1 + h2 - h3 != chi_closed_form(params, div):
                    failures.append(("cohomology-chi-oracle", div))
                if (h3, h2, h1, h0) != h_scroll(params, serre_dual(params, div)):
                    failures.append(("cohomology-serre-duality", div))
                if (x == -1 or y == -1) and any(vec):
                    failures.append(("cohomology-vanishing-strip", div))
                edge = min(max(z, lo), hi)  # z, or the wall next to an outer point
                inner = vec if edge == z else h_scroll(params, DivisorClass(x, y, edge))
                if min(vec) < 0 or (x >= 0 and h3 != 0) or any(u < v for u, v in zip(vec, inner)):
                    failures.append(("cohomology-degree-bounds", div))
    return failures


def _cohomology_checks(col: _Collector, failures: Failures, span: int = 3):
    """One row per claim of the box |x|, |y| <= span; `failures` may come from a wider sweep."""
    for name, what in _COHOMOLOGY_CLAIMS:
        col.first(name, (f"{what} at {div.as_tuple()}" for check, div in failures
                         if check == name and abs(div.x) <= span and abs(div.y) <= span))


def _expected_cases(params: ScrollParams) -> set[int]:
    tags = set(named_line_bundles(params))
    return {case for pair, case in CASE_OF_PAIR.items() if pair <= tags}


def _check_involution_orbits(
    params: ScrollParams, records: Records, swapped_records: Records
) -> Iterator[str]:
    """Yield a message for each failure of the case set or of an involution transport.

    `records`, `swapped_records`: enumerate_cases of params and params.swapped().
    """
    by_pair = {(r.sub, r.quotient): r for r in records}

    seen_cases = {r.case_id for r in records}
    expected = _expected_cases(params)
    if seen_cases != expected:
        yield f"cases {sorted(seen_cases)} != expected {sorted(expected)} at {params}"

    kx4h = params.canonical + 4 * params.h
    for r in records:
        # Ulrich duality: Ext^1(A, B) = Ext^1(B^U, A^U).
        image = by_pair.get((ulrich_dual(params, r.quotient), ulrich_dual(params, r.sub)))
        if image is None:
            yield f"dual image of case {r.case_id} missing at {params}"
            continue
        if ORBIT_REPRESENTATIVE[image.case_id] != ORBIT_REPRESENTATIVE[r.case_id]:
            yield f"dual image of case {r.case_id} leaves its orbit"
        if image.ext_dim != r.ext_dim:
            yield f"ext^1 not preserved by Ulrich duality at {params}"
        if image.c1 != 2 * kx4h - r.c1:
            yield f"c1 not transported by Ulrich duality at {params}"
        if image.c2 != mul_div_div(kx4h, kx4h, params) - mul_div_div(kx4h, r.c1, params) + r.c2:
            yield f"c2 not transported by Ulrich duality at {params}"

    # Base swap: compare against the records of the swapped scroll structure.
    swapped_by_pair = {(r.sub, r.quotient): r for r in swapped_records}
    for r in records:
        key = ((r.sub.y, r.sub.x, r.sub.z), (r.quotient.y, r.quotient.x, r.quotient.z))
        image = swapped_by_pair.get(key)
        if image is None:
            yield f"swap image of case {r.case_id} missing at {params}"
            continue
        if ORBIT_REPRESENTATIVE[image.case_id] != ORBIT_REPRESENTATIVE[r.case_id]:
            yield f"swap image of case {r.case_id} leaves its orbit"
        if image.sub_tag != SWAP_TAG[r.sub_tag] or image.quot_tag != SWAP_TAG[r.quot_tag]:
            yield f"swap tags wrong for case {r.case_id} at {params}"
        if image.ext_dim != r.ext_dim:
            yield f"ext^1 not preserved by the base swap at {params}"
        if image.c1 != (r.c1.y, r.c1.x, r.c1.z):
            yield f"c1 not transported by the base swap at {params}"
        if image.c2 != r.c2.swapped():
            yield f"c2 not transported by the base swap at {params}"


def _ext_checks(col: _Collector, params: ScrollParams, records: Records, swapped_records: Records):
    a, b, c = params.a, params.b, params.c
    forms = named_line_bundles(params)
    N, NU = forms["N"], forms["N_dual"]
    e = lambda u, v: ext1_dim(params, u, v)

    col.equal("ext-N-NU", e(N, NU), a + 2 if a > 0 else 3)
    col.equal("ext-NU-N", e(NU, N), b + 2 if b > 0 else 3)
    if a == 0:
        L, LU = forms["L"], forms["L_dual"]
        col.equal("ext-L-LU", e(L, LU), 3 * (2 * c - b - 1))
        col.equal("ext-LU-L", e(LU, L), 2 * c - b + 1)
        col.equal("ext-N-L", e(N, L), 0)
        col.equal("ext-L-N", e(L, N), 2 * c - b - 2 if c > b + 1 else c - 1)
        col.equal("ext-NU-L", e(NU, L), 2 * c - b + 2)
    if a == 0 and b == 0:
        M, MU = forms["M"], forms["M_dual"]
        col.equal("ext-L-M", e(forms["L"], M), 8 * c - 4)
        col.equal("ext-L-MU", e(forms["L"], MU), 0)

    # the ordered-pair matrix transports along both involutions
    col.first("ext-involution-orbits", _check_involution_orbits(params, records, swapped_records))


def _chern_checks(col: _Collector, params: ScrollParams, records: Records):
    a, b, c = params.a, params.b, params.c
    forms = named_line_bundles(params)

    def case(name, sub_tag, quot_tag, c1_want, c2_want, obstructed_a, obstructed_b):
        sub, quot = forms[sub_tag], forms[quot_tag]
        c1, c2 = extension_chern(params, sub, quot)
        col.equal(f"chern-{name}-c1", c1.as_tuple(), c1_want)
        col.equal(f"chern-{name}-c2", c2.as_tuple(), c2_want)
        _, c2_tw = twisted_chern(params, c1, c2)
        report = pullback_obstruction_report(c2_tw)
        col.equal(f"obstruction-{name}", (report.from_base_a, report.from_base_b),
                  (obstructed_a, obstructed_b))

    case("case1", "N_dual", "N",
         (2, 2, 4 * c - a - b - 2),
         (4, 2 * (2 * c - b - 1), 2 * (2 * c - a - 1)),
         True, True)
    if a == 0:
        case("case2", "L_dual", "L",
             (2, 2, 4 * c - b - 2),
             (2, 2 * (2 * c - b - 1), 2 * (3 * c - b - 1)),
             False, True)
        case("case3", "N", "L",
             (3, 0, 5 * c - b - 2),
             (0, 8 * c - 4 * b - 3, 0),
             True, True)
        case("case4", "L", "N_dual",
             (1, 2, 5 * c - 2 * b - 2),
             (2, 2 * c - b - 1, 2 * (3 * c - b - 1)),
             True, True)
        case("case5", "N", "L_dual",
             (3, 2, 3 * c - 2),
             (4, 4 * c - 2 * b - 3, 2 * (2 * c - 1)),
             True, True)
        case("case6", "L_dual", "N_dual",
             (1, 4, 3 * c - b - 2),
             (2, 2 * c - b - 1, 2 * (3 * c - b - 2)),
             True, True)
    if a == 0 and b == 0:
        case("case7", "M_dual", "M",
             (2, 2, 2 * (2 * c - 1)),
             (2, 2 * (3 * c - 1), 2 * (2 * c - 1)),
             True, False)
        case("case8", "M", "L",
             (3, 1, 2 * (2 * c - 1)),
             (1, 7 * c - 3, 3 * c - 1),
             True, True)

    # the twist by -h of the case-1 and case-2 bundles, in closed form
    c1, c2 = extension_chern(params, forms["N_dual"], forms["N"])
    c1_tw, c2_tw = twisted_chern(params, c1, c2)
    col.equal("twist-case1-c1", c1_tw.as_tuple(), (0, 0, 2 * c - a - b - 2))
    col.equal("twist-case1-c2", c2_tw.as_tuple(), (2, a, b))
    if a == 0:
        c1, c2 = extension_chern(params, forms["L_dual"], forms["L"])
        c1_tw, c2_tw = twisted_chern(params, c1, c2)
        col.equal("twist-case2-c1", c1_tw.as_tuple(), (0, 0, 2 * c - b - 2))
        col.equal("twist-case2-c2", c2_tw.as_tuple(), (0, 0, 2 * c - b))

    # slope of every extension c1 equals d + g - 1 per rank
    _, d, g = numerical_invariants(params)
    mu = Fraction(d + g - 1)
    col.first("extension-slope",
              (f"case {rec.case_id}" for rec in records if slope(params, rec.c1, 2) != mu))


def _endo_checks(col: _Collector, params: ScrollParams):
    a, b, c = params.a, params.b, params.c
    forms = named_line_bundles(params)
    N, NU = forms["N"], forms["N_dual"]

    alpha = b + 2 if b >= 1 else 3
    delta = b - 1 if b >= 2 else 0
    if a == 0:
        col.equal("endo-case1-chi", chi_endomorphisms_rank2(params, NU, N), delta - alpha - 1)
        col.equal("endo-case1-h2", h2_endomorphisms_rank2(params, NU, N), delta)
        L, LU = forms["L"], forms["L_dual"]
        col.equal("endo-case2-chi", chi_endomorphisms_rank2(params, LU, L), 4 - 4 * (2 * c - b))
        col.equal("endo-case2-h2", h2_endomorphisms_rank2(params, LU, L), 0)
    else:
        col.equal("endo-case1-chi", chi_endomorphisms_rank2(params, NU, N), -4)
        if a == 1:
            col.equal("endo-case1-h2", h2_endomorphisms_rank2(params, NU, N), delta)
        else:
            try:
                h2_endomorphisms_rank2(params, NU, N)
                col.check("endo-case1-h2-guard", False, "expected hypothesis failure")
            except VanishingHypothesisError:
                col.check("endo-case1-h2-guard", True)

    # chi(End) of every dual pair is non-positive (positive-dim deformations)
    pairs = [(NU, N)]
    if a == 0:
        pairs.append((forms["L_dual"], forms["L"]))
    if b == 0:
        pairs.append((forms["M_dual"], forms["M"]))
    col.check(
        "endo-dual-pairs-nonpositive",
        all(chi_endomorphisms_rank2(params, s, q) <= 0 for s, q in pairs),
    )


def _moduli_checks(col: _Collector, params: ScrollParams):
    a, b, c = params.a, params.b, params.c
    p1 = moduli_prediction(params, 1)
    if max(a, b) <= 1:
        col.equal("moduli-case1", (p1.dimension_kind, p1.dimension, p1.generically_smooth),
                  ("exact", 5, True))
    else:
        col.equal("moduli-case1", (p1.dimension_kind, p1.dimension, p1.generically_smooth),
                  ("at_least_if_stable", 5, None))
    col.check("moduli-case1-special", p1.special)
    if a == 0:
        p2 = moduli_prediction(params, 2)
        col.equal("moduli-case2", (p2.dimension_kind, p2.dimension, p2.generically_smooth),
                  ("exact", 4 * (2 * c - b) - 3, True))
        col.check("moduli-case2-special", p2.special)
        for k in (3, 4):
            pk = moduli_prediction(params, k)
            col.equal(f"moduli-case{k}", (pk.dimension_kind, pk.special), ("point", False))
    if a == 0 and b == 0:
        p8 = moduli_prediction(params, 8)
        col.equal("moduli-case8", (p8.dimension_kind, p8.special), ("point", False))


def run_cell_checks(cell: tuple[int, int, int], cohomology: Failures) -> list[CheckResult]:
    """Every check of one triple; `cohomology` is cohomology_failures of its (a, b)."""
    a, b, c = cell
    col = _Collector(a, b, c)
    params = ScrollParams(a, b, c)
    # one classification and one enumeration per triple; at a = b the swap
    # fixes the parameters
    bundles = classify_ulrich_line_bundles(params)
    _classification_checks(col, params, bundles)
    _chow_checks(col, params)
    _cohomology_checks(col, cohomology)
    records = enumerate_cases(params, bundles)
    sw = params.swapped()
    swapped_records = records if a == b else enumerate_cases(sw, classify_ulrich_line_bundles(sw))
    _ext_checks(col, params, records, swapped_records)
    _chern_checks(col, params, records)
    _endo_checks(col, params)
    _moduli_checks(col, params)
    return col.results


def run_cohomology_box_checks(swept: dict[tuple[int, int], Failures]) -> list[CheckResult]:
    """The four cohomology claims on |x|, |y| <= 5 at the six representative parameters.

    `swept` maps (a, b) to its cohomology_failures; a family it lacks is swept here.
    """
    out = []
    for a, b, c in REPRESENTATIVE_PARAMS:
        col = _Collector(a, b, c)
        params = ScrollParams(a, b, c)
        failures = swept[a, b] if (a, b) in swept else cohomology_failures(params)
        _cohomology_checks(col, failures, span=5)
        out.extend(
            CheckResult(a, b, c, r.check + "-representative-box", r.ok, r.detail)
            for r in col.results
        )
    return out


# Ranks at which the tower closed forms are compared: four of each parity,
# enough to pin a polynomial of degree 3 in r (see run_tower_checks).
TOWER_RANKS = 2 * (3 + 1)


def _closed_c1(params: ScrollParams, r: int) -> DivisorClass:
    a, b, c = params.a, params.b, params.c
    if r % 2:
        return DivisorClass(
            r - 1, r + 1, r * (2 * c - 1) - (r + 1) // 2 * b - (r - 1) // 2 * a
        )
    return DivisorClass(r, r, r * (2 * c - 1) - r // 2 * (a + b))


def _closed_c2(params: ScrollParams, r: int) -> Codim2Class:
    a, b, c = params.a, params.b, params.c
    if r % 2:
        return Codim2Class(
            r * r - 1,
            (r - 1) ** 2 * (2 * c - b - 1) - a * (r - 1) * (r - 3) // 2,
            (r * r - 1) * (4 * c - 2 * a - b - 2) // 2,
        )
    return Codim2Class(
        r * r,
        r * (r - 1) * (2 * c - a - b - 1) + a * r * r // 2,
        r * (r - 1) * (2 * c - a - b - 1) + b * r * r // 2,
    )


def _closed_c3(params: ScrollParams, r: int) -> int:
    g1 = 2 * params.c - params.a - params.b - 1
    if r % 2:
        return (r * r - 1) * (r - 2) * g1
    return r * r * (r - 2) * g1


def _check_tower(params: ScrollParams) -> Iterator[str]:
    """Yield a message for each tower value that misses its closed form."""

    def expect(what: str, got, want) -> Iterator[str]:
        if got != want:
            yield f"tower {what}: got {got}, want {want} at {params}"

    n_dual, n = tower_pair(params)
    seeds = (h_scroll(params, n_dual - n).h1, h_scroll(params, n - n_dual).h1)
    yield from expect("h^1 seeds", seeds, (3, 3))
    h1 = tower_h1_recursion(params, TOWER_RANKS)
    _, d, g = numerical_invariants(params)
    mu = Fraction(d + g - 1)
    for tw in iter_tower(params, TOWER_RANKS):
        r = tw.rank
        odd = r % 2
        yield from expect(f"Chern classes at r={r}", (tw.c1, tw.c2, tw.c3),
                          (_closed_c1(params, r), _closed_c2(params, r), _closed_c3(params, r)))
        yield from expect(f"slope at r={r}", slope(params, tw.c1, r), mu)
        chi_next = chi_tower_vs_line(params, r, (n_dual, n)[odd])  # Q_{r+1}
        yield from expect(f"chi vs Q_{r + 1} at r={r}", chi_next, -r - 2 if odd else -r)
        yield from expect(f"chi vs Q_{r} at r={r}",
                          chi_tower_vs_line(params, r, (n, n_dual)[odd]),
                          -r + 2 if odd else -r)
        chi_end = chi_endo_tower(params, r)
        yield from expect(f"chi(End) at r={r}", chi_end, -r * r + 2 if odd else -r * r)
        yield from expect(f"moduli dim vs 1 - chi(End) at r={r}",
                          moduli_dim_tower(r), 1 - chi_end)
        yield from expect(f"h^1 at r={r}", h1[r - 1], r + 2 if odd else r + 1)
        yield from expect(f"h^1 vs h^0 - chi at r={r}",
                          h1[r - 1], (0 if odd else 1) - chi_next)
        if r >= 2:
            yield from expect(f"gap at r={r}", moduli_dim_gap(r),
                              moduli_dim_tower(r) - moduli_dim_tower(r - 1) + 1 - h1[r - 2])


def run_tower_checks() -> list[CheckResult]:
    """`tower-closed-forms` on the 18 cells a <= b <= 1, c = a+b+1..a+b+6.

    Each cell compares the library's tower with the closed forms above at
    ranks 1..TOWER_RANKS: the Chern classes of the Whitney recursion, both
    chi ladders and chi(End G_r), the h^1 sequence against its closed form
    and against h^0 - chi, the seeds h^1(N^U - N) = h^1(N - N^U) = 3, the
    slope, the gap, and the moduli dimension against the deformation count
    1 - chi(End G_r).

    Certificate that the Chern closed forms hold for every (a, b, c) and r.
    On each parity of r every `//` in them divides exactly, so they are
    polynomials of degree <= 3 in r, affine in (a, b, c); the x, y parts of
    c1 and the xi.C0 part of c2 do not involve (a, b, c), nor do the x, y
    parts of N and N^U.  Let D(r) be the closed form at r minus one Whitney
    step with Q_r applied to the closed form at r - 1.  By the above, D is,
    for each parity, of degree <= 3 in r and affine in (a, b, c).  The
    closed form at r = 0 is zero, so D(1) = 0 is the base case G_1 = N^U,
    and where the recursion matches at r - 1, D(r) = 0 says it matches at r.
    Agreement at ranks 1..8 thus makes D vanish at four ranks of each
    parity, on the four affinely independent cells (0,0,1), (0,0,2),
    (0,1,2) and (1,1,3) of this grid; so D vanishes identically, and by
    induction on r the closed forms equal the recursion everywhere.
    """
    out = []
    for a in (0, 1):
        for b in range(a, 2):
            for c in range(a + b + 1, a + b + 7):
                col = _Collector(a, b, c)
                col.first("tower-closed-forms", _check_tower(ScrollParams(a, b, c)))
                out.extend(col.results)
    return out


# The instanton checks run at c = 1..INSTANTON_C_MAX, on the base F_0.
INSTANTON_C_MAX = 6


def run_instanton_checks() -> list[CheckResult]:
    out = []
    for c in range(1, INSTANTON_C_MAX + 1):
        col = _Collector(0, 0, c)
        triples = instanton_admissible(c)
        col.check(
            "instanton-constraint",
            all(t.k1 + t.k2 + c * t.k3 == 2 * c for t in triples),
        )
        by_case = {case: [t for t in triples if t.case == case]
                   for case in ("alpha", "beta", "gamma")}
        col.equal("instanton-counts",
                  (len(by_case["alpha"]), len(by_case["beta"]), len(by_case["gamma"])),
                  (1, c + 1, 2 * c + 1))
        col.check(
            "instanton-dims",
            all(t.predicted_dim == 4 * (c + 1) - 3 for t in by_case["beta"])
            and all(t.predicted_dim == 8 * c - 3 for t in by_case["gamma"]),
        )
        col.check(
            "instanton-twist",
            all(t.c2_after_twist == (t.k1 + 4 * c - 2, t.k2 + 4 * c - 2, t.k3 + 2)
                for t in triples),
        )
        if c == 1:
            p1 = moduli_prediction(ScrollParams(0, 0, 1), 1)
            col.check(
                "instanton-c1-crosscheck",
                all(t.predicted_dim == 5 for t in triples)
                and p1.dimension == 5 and p1.dimension_kind == "exact",
            )
        out.extend(col.results)
    return out
