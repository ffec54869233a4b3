"""Grid verification: replays every numeric claim the library is built on.

Each check returns rows (a, b, c, check, status, detail); the CLI verify
command renders them and sets the exit code.  A claim of one part is one
`check` or `equal` row; a claim of many parts is a generator of failure
messages, which `_Collector.first` turns into one row that fails with the
first message, so a defect fails a row and never stops the run.  Cell
checks run per parameter triple, one cell after another in one process; the
fixed-grid checks (cohomology box at representative parameters, tower, the
tower hypothesis, instanton) run once.  The cohomology box reads (a, b) and
not c, so `run_grid` sweeps it once per (a, b) (`cohomology_failures`), and
every cell and representative row of that family reads its first failures
from that sweep.

The library computes and this module checks what it computed: the cell
rows of the Ulrich dual and of the rank-two invariants read the records
that `classify` and `ext-table` print (the dual of each classified bundle,
the fields of the enumerate_cases records, by their two tags, and the
moduli predictions of those records, by case) and compare them with closed
forms; a missing record fails its row.  These live only
here: the O(1) certificate that the classification scan misses no Ulrich
bundle, both its x, y bound and its z-window (`ulrich-scan-bounds`, with the
one copy of the L_j root), the involution transport of the extension records
(`ext-involution-orbits`), the closed forms of the rank-two invariants and
of the moduli dimensions, and the closed forms of the extension tower with
their certificate (`tower-closed-forms`, with the one copy of the h^1
closed form) and the bound of its hypothesis (`tower-hypothesis`: both h^1
seeds equal 3 on a <= b exactly where in_tower_hypothesis holds).

The transport reaches every value field of a record.  Ulrich duality maps
the record of (sub, quot) to that of (quot^U, sub^U) and F to
F^dual(K_X + 4h): it keeps ext^1 and the fields of End F (chi_endo,
h2_endo, special), moves c1 and c2 by the rule of a dual twisted by
K_X + 4h, and the twisted classes by the same rule with K_X + 2h, since
F^U(-h) = (F(-h))^dual(K_X + 2h).  The base swap keeps ext^1 and the End
fields, maps the tags by SWAP_TAG and every class by .swapped(), and
exchanges the two obstruction flags, since it exchanges the two bases.
Duality leaves the obstruction flags out: they held on every record of a
probe, but no argument for them is written down, and the swap pins each
flag against a second record already.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .chow import (
    Codim2Class,
    DivisorClass,
    ScrollParams,
    _new,
    mul_div_div,
    numerical_invariants,
    triple,
)
from .cohomology import chi_closed_form, h_scroll, serre_dual
from .extensions import (
    CASE_OF_PAIR,
    ORBIT_REPRESENTATIVE,
    ModuliPrediction,
    Rank2ExtensionRecord,
    enumerate_cases,
    instanton_admissible,
    moduli_predictions,
)
from .tower import (
    chi_endo_tower,
    chi_tower_vs_line,
    in_tower_hypothesis,
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
ByTags = dict[tuple[str, str], Rank2ExtensionRecord]  # (sub_tag, quot_tag) -> its record
Predictions = dict[int, ModuliPrediction]  # case -> the prediction of its records
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
        """One row; `detail` says what failed, so a passing row keeps none."""
        a, b, c = self.cell
        self.results.append(_new(CheckResult, (a, b, c, name, bool(ok), "" if ok else detail)))

    def equal(self, name: str, got, want):
        ok = got == want
        self.check(name, ok, "" if ok else f"got {got}, want {want}")

    def first(self, name: str, failures: Iterable[str]):
        """One row for a claim of many parts; reads `failures` up to its first message."""
        detail = next(iter(failures), "")
        self.check(name, not detail, detail)


def _l_root(params: ScrollParams, x: int, y: int, j: int) -> int:
    """The root in z of L_j (verify_scan_bounds), rounded down at a half-integer."""
    a, b, c = params
    return (b * x + a * y - 2 - j * (a + b - 2 * c)) // 2


def verify_scan_bounds(params: ScrollParams) -> bool:
    """Certify in O(1), whatever c is, that the classification scan is complete.

    2 chi(D - jh) factors as (x-j+1)(y-j+1) L_j with L_j = 2z + 2 - bx - ay
    + j(a+b-2c).  L_j moves by a+b-2c != 0 per step of j, so it vanishes for
    at most one j, as do the other two factors; an Ulrich D needs all three
    j, so 0 <= x, y <= 2 and z is the root of L_j for some j.  The window:
    2 root = 2jc - 2 + b(x - j) + a(y - j), and with c >= a + b + 1 every
    root lies in [0, 3c - 1], strictly inside z_window = [-3c - a - b - 4,
    4c + a + b + 2].  Checked here: the nonzero step, each of the 27 roots for
    0 <= x, y <= 2 strictly inside z_window, and is_ulrich_line rejecting the
    L_j root of each border row for j = 1, 2, 3: 36 calls, each decided by the
    sieve, since the border rows have some j with chi(D - jh) != 0.  The sieve
    reads twice_chi, the one Riemann-Roch polynomial, and chi_closed_form is
    half of it; cohomology-chi-oracle compares that with every h^i on the lines
    |x|, |y| <= 3 at every z, which covers each D - jh the scan's sieve reads.
    """
    a, b, c = params.a, params.b, params.c
    window = z_window(params)
    inside = all(
        window.start < _l_root(params, x, y, j) < window.stop - 1
        for x in range(3) for y in range(3) for j in (1, 2, 3)
    )
    border = [(x, y) for x in (-1, 3) for y in range(3)]
    border += [(x, y) for y in (-1, 3) for x in range(3)]
    return a + b - 2 * c != 0 and inside and not any(
        is_ulrich_line(params, _new(DivisorClass, (x, y, _l_root(params, x, y, j))))
        for x, y in border for j in (1, 2, 3)
    )


def _classification_checks(
    col: _Collector, params: ScrollParams, records: Bundles, swapped_records: Bundles
):
    """`records`, `swapped_records`: the classification of params and of params.swapped()."""
    _, d, g = numerical_invariants(params)
    col.equal("ulrich-count", len(records), expected_count(params))
    unnamed = [r.divisor.as_tuple() for r in records if r.tag == "other"]
    col.check("ulrich-no-unnamed", not unnamed, str(unnamed) if unnamed else "")

    forms = named_line_bundles(params)
    col.equal(
        "ulrich-closed-forms",
        {r.tag: r.divisor.as_tuple() for r in records},
        {tag: div.as_tuple() for tag, div in forms.items()},
    )

    divisors = {r.divisor for r in records}
    swapped_divisors = {r.divisor for r in swapped_records}
    for r in records:
        dual = r.special_pairing
        closed = dual in divisors
        col.check("ulrich-duality-closure", closed,
                  "" if closed else f"dual of {r.divisor.as_tuple()} missing")
        col.equal("ulrich-dual-involution",
                  ulrich_dual(params, dual), r.divisor)
        col.equal("ulrich-dual-tag", forms.get(DUAL_TAG[r.tag]), dual)
        col.equal("ulrich-h0-degree", h_scroll(params, r.divisor).h0, d)
        col.equal("ulrich-slope", slope(params, r.divisor, 1), Fraction(d + g - 1))
        sw_params, sw_div = base_swap(params, r.divisor)
        invariant = sw_div in swapped_divisors
        col.check("ulrich-swap-invariance", invariant,
                  "" if invariant else f"{r.divisor.as_tuple()} not Ulrich after swap")
        col.equal("ulrich-swap-involution",
                  base_swap(sw_params, sw_div), (params, r.divisor))
    col.check("ulrich-scan-bounds", verify_scan_bounds(params))


def _chow_checks(col: _Collector, params: ScrollParams):
    n, d, g = numerical_invariants(params)
    h = params.h
    col.equal("chow-ambient-dim", h_scroll(params, h).h0 - 1, n)
    col.equal("chow-degree", triple(h, h, h, params), d)
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

    Each class is evaluated once: a table local to this call keeps the vector
    of every class the sweep has asked for, keyed by the class, so a box point
    that returns as another point's Serre image (looked up by what serre_dual
    returns) or as its line's wall is read from the table.  Each of the three
    classes of a point (the point, its Serre image and, at an outer point, the
    wall next to it) is one read of the table through its bound get, and each
    vector is unpacked once: the claims are tested on the four ints.  The
    table is dropped when the call returns.
    """
    a, b = params.a, params.b
    reach = 5 if (a, b) in _REPRESENTATIVE_FAMILIES else 3
    vectors = {}
    get = vectors.get

    failures = []
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            lo, hi = _walls(a, b, x, y)
            strip = x == -1 or y == -1
            for z in range(lo - 1, hi + 2):
                div = _new(DivisorClass, (x, y, z))
                vec = get(div)
                if vec is None:
                    vec = vectors[div] = h_scroll(params, div)
                h0, h1, h2, h3 = vec
                if h0 - h1 + h2 - h3 != chi_closed_form(params, div):
                    failures.append(("cohomology-chi-oracle", div))
                dual = serre_dual(params, div)
                vec = get(dual)
                if vec is None:
                    vec = vectors[dual] = h_scroll(params, dual)
                if (h3, h2, h1, h0) != vec:
                    failures.append(("cohomology-serre-duality", div))
                if strip and (h0 or h1 or h2 or h3):
                    failures.append(("cohomology-vanishing-strip", div))
                # at an outer point, some h^i falls from the wall next to it
                falls = False
                if z < lo or z > hi:
                    wall = _new(DivisorClass, (x, y, lo if z < lo else hi))
                    vec = get(wall)
                    if vec is None:
                        vec = vectors[wall] = h_scroll(params, wall)
                    w0, w1, w2, w3 = vec
                    falls = h0 < w0 or h1 < w1 or h2 < w2 or h3 < w3
                if (h0 < 0 or h1 < 0 or h2 < 0 or h3 < 0 or (x >= 0 and h3 != 0)
                        or falls):
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


# The fields of a record that read End F alone.  Ulrich duality maps F to
# F^dual(K_X + 4h), whose End is End(F)^dual = End F, and keeps the class
# sub - quot whose h^2 decides a refusal; the base swap is an isomorphism.  So
# both involutions preserve each of them, a refused h2_endo (None) included.
_END_FIELDS = ("chi_endo", "h2_endo", "special")
_end_fields = attrgetter(*_END_FIELDS)


def _check_involution_orbits(
    params: ScrollParams, records: Records, swapped_records: Records
) -> Iterator[str]:
    """Yield a message for each failure of the case set or of an involution transport.

    `records`, `swapped_records`: enumerate_cases of params and params.swapped().
    The fields each involution transports are listed in the module docstring.
    K_X + 4h, K_X + 2h, their squares and the dual and swap image of each
    bundle are computed once per cell, not once per record.
    """
    by_pair = {(r.sub, r.quotient): r for r in records}

    seen_cases = {r.case_id for r in records}
    expected = _expected_cases(params)
    if seen_cases != expected:
        yield f"cases {sorted(seen_cases)} != expected {sorted(expected)} at {params}"

    kx4h = params.canonical + 4 * params.h
    kx2h = params.canonical + 2 * params.h
    twice_kx4h, kx4h_sq = 2 * kx4h, mul_div_div(kx4h, kx4h, params)
    twice_kx2h, kx2h_sq = 2 * kx2h, mul_div_div(kx2h, kx2h, params)
    bundles = {d for pair in by_pair for d in pair}
    dual = {d: ulrich_dual(params, d) for d in bundles}
    for r in records:
        # Ulrich duality: Ext^1(A, B) = Ext^1(B^U, A^U).
        image = by_pair.get((dual[r.quotient], dual[r.sub]))
        if image is None:
            yield f"dual image of case {r.case_id} missing at {params}"
            continue
        if ORBIT_REPRESENTATIVE[image.case_id] != ORBIT_REPRESENTATIVE[r.case_id]:
            yield f"dual image of case {r.case_id} leaves its orbit"
        if image.ext_dim != r.ext_dim:
            yield f"ext^1 not preserved by Ulrich duality at {params}"
        if image.c1 != twice_kx4h - r.c1:
            yield f"c1 not transported by Ulrich duality at {params}"
        if image.c2 != kx4h_sq - mul_div_div(kx4h, r.c1, params) + r.c2:
            yield f"c2 not transported by Ulrich duality at {params}"
        yield from _end_fields_kept(r, image, "Ulrich duality", params)
        if image.c1_twisted != twice_kx2h - r.c1_twisted:
            yield f"c1_twisted not transported by Ulrich duality at {params}"
        if image.c2_twisted != kx2h_sq - mul_div_div(kx2h, r.c1_twisted, params) + r.c2_twisted:
            yield f"c2_twisted not transported by Ulrich duality at {params}"

    # Base swap: compare against the records of the swapped scroll structure.
    swapped_by_pair = {(r.sub, r.quotient): r for r in swapped_records}
    swap = {d: d.swapped() for d in bundles}
    for r in records:
        image = swapped_by_pair.get((swap[r.sub], swap[r.quotient]))
        if image is None:
            yield f"swap image of case {r.case_id} missing at {params}"
            continue
        if ORBIT_REPRESENTATIVE[image.case_id] != ORBIT_REPRESENTATIVE[r.case_id]:
            yield f"swap image of case {r.case_id} leaves its orbit"
        if image.sub_tag != SWAP_TAG[r.sub_tag] or image.quot_tag != SWAP_TAG[r.quot_tag]:
            yield f"swap tags wrong for case {r.case_id} at {params}"
        if image.ext_dim != r.ext_dim:
            yield f"ext^1 not preserved by the base swap at {params}"
        if image.c1 != r.c1.swapped():
            yield f"c1 not transported by the base swap at {params}"
        if image.c2 != r.c2.swapped():
            yield f"c2 not transported by the base swap at {params}"
        yield from _end_fields_kept(r, image, "the base swap", params)
        if image.c1_twisted != r.c1_twisted.swapped():
            yield f"c1_twisted not transported by the base swap at {params}"
        if image.c2_twisted != r.c2_twisted.swapped():
            yield f"c2_twisted not transported by the base swap at {params}"
        from_a, from_b = r.obstruction
        if image.obstruction != (from_b, from_a):
            yield f"obstruction of case {r.case_id} not exchanged by the base swap at {params}"


def _end_fields_kept(
    r: Rank2ExtensionRecord, image: Rank2ExtensionRecord, by: str, params: ScrollParams
) -> Iterator[str]:
    if _end_fields(image) == _end_fields(r):  # one read of the three fields when all hold
        return
    for field in _END_FIELDS:
        if getattr(image, field) != getattr(r, field):
            yield f"{field} of case {r.case_id} not preserved by {by} at {params}"


def _read(rec: ByTags, sub_tag: str, quot_tag: str, field: str):
    """`field` of the record (sub_tag, quot_tag), a class as a plain tuple; None if missing."""
    r = rec.get((sub_tag, quot_tag))
    value = None if r is None else getattr(r, field)
    return tuple(value) if isinstance(value, tuple) else value


def _ext_checks(col: _Collector, params: ScrollParams, rec: ByTags, swapped_records: Records):
    a, b, c = params.a, params.b, params.c
    e = lambda u, v: _read(rec, v, u, "ext_dim")  # ext^1(u, v): quotient u, sub v

    col.equal("ext-N-NU", e("N", "N_dual"), a + 2 if a > 0 else 3)
    col.equal("ext-NU-N", e("N_dual", "N"), b + 2 if b > 0 else 3)
    if a == 0:
        col.equal("ext-L-LU", e("L", "L_dual"), 3 * (2 * c - b - 1))
        col.equal("ext-LU-L", e("L_dual", "L"), 2 * c - b + 1)
        col.equal("ext-N-L", e("N", "L"), 0)
        col.equal("ext-L-N", e("L", "N"), 2 * c - b - 2)
        col.equal("ext-NU-L", e("N_dual", "L"), 2 * c - b + 2)
    if a == 0 and b == 0:
        col.equal("ext-L-M", e("L", "M"), 8 * c - 4)
        col.equal("ext-L-MU", e("L", "M_dual"), 0)
        col.equal("ext-MU-L", e("M_dual", "L"), 0)

    # the ordered-pair matrix transports along both involutions
    col.first("ext-involution-orbits",
              _check_involution_orbits(params, list(rec.values()), swapped_records))


def _chern_checks(col: _Collector, params: ScrollParams, rec: ByTags):
    a, b, c = params.a, params.b, params.c

    def case(name, sub_tag, quot_tag, c1_want, c2_want, obstructed_a, obstructed_b):
        col.equal(f"chern-{name}-c1", _read(rec, sub_tag, quot_tag, "c1"), c1_want)
        col.equal(f"chern-{name}-c2", _read(rec, sub_tag, quot_tag, "c2"), c2_want)
        col.equal(f"obstruction-{name}", _read(rec, sub_tag, quot_tag, "obstruction"),
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
    col.equal("twist-case1-c1", _read(rec, "N_dual", "N", "c1_twisted"), (0, 0, 2 * c - a - b - 2))
    col.equal("twist-case1-c2", _read(rec, "N_dual", "N", "c2_twisted"), (2, a, b))
    if a == 0:
        col.equal("twist-case2-c1", _read(rec, "L_dual", "L", "c1_twisted"), (0, 0, 2 * c - b - 2))
        col.equal("twist-case2-c2", _read(rec, "L_dual", "L", "c2_twisted"), (0, 0, 2 * c - b))

    # slope of every extension c1 equals d + g - 1 per rank
    _, d, g = numerical_invariants(params)
    mu = Fraction(d + g - 1)
    col.first("extension-slope",
              (f"case {r.case_id}" for r in rec.values() if slope(params, r.c1, 2) != mu))


def _endo_checks(col: _Collector, params: ScrollParams, rec: ByTags):
    a, b, c = params.a, params.b, params.c
    chi_end = lambda sub_tag, quot_tag: _read(rec, sub_tag, quot_tag, "chi_endo")
    h2_end = lambda sub_tag, quot_tag: _read(rec, sub_tag, quot_tag, "h2_endo")

    alpha = b + 2 if b >= 1 else 3
    delta = b - 1 if b >= 2 else 0
    if a == 0:
        col.equal("endo-case1-chi", chi_end("N_dual", "N"), delta - alpha - 1)
        col.equal("endo-case1-h2", h2_end("N_dual", "N"), delta)
        col.equal("endo-case2-chi", chi_end("L_dual", "L"), 4 - 4 * (2 * c - b))
        col.equal("endo-case2-h2", h2_end("L_dual", "L"), 0)
    else:
        col.equal("endo-case1-chi", chi_end("N_dual", "N"), -4)
        if a == 1:
            col.equal("endo-case1-h2", h2_end("N_dual", "N"), delta)
        else:
            # a refused h^2 is stored as None; a missing record is no refusal
            refused = ("N_dual", "N") in rec and h2_end("N_dual", "N") is None
            col.check("endo-case1-h2-guard", refused, "expected hypothesis failure")
    if b == 0:  # case 7, the base-swap image of case 2
        col.equal("endo-case7-chi", chi_end("M", "M_dual"), 4 - 4 * (2 * c - a))
        col.equal("endo-case7-h2", h2_end("M", "M_dual"), 0)

    # chi(End) of every dual pair is non-positive (positive-dim deformations)
    pairs = [("N_dual", "N")]
    if a == 0:
        pairs.append(("L_dual", "L"))
    if b == 0:
        pairs.append(("M_dual", "M"))
    chis = [chi_end(*pair) for pair in pairs]
    col.check("endo-dual-pairs-nonpositive", all(x is not None and x <= 0 for x in chis))


def _moduli_checks(col: _Collector, params: ScrollParams, rec: ByTags, predictions: Predictions):
    a, b, c = params.a, params.b, params.c
    special = lambda sub_tag, quot_tag: _read(rec, sub_tag, quot_tag, "special")

    def predicted(case: int, *fields: str) -> tuple:
        # a case without records has no prediction: all None, so its rows fail
        return tuple(getattr(predictions.get(case), field, None) for field in fields)

    shape = ("dimension_kind", "dimension", "generically_smooth")
    smooth = [(1, ("N_dual", "N"))]  # (case, the pair _endo_checks reads)
    if max(a, b) <= 1:
        col.equal("moduli-case1", predicted(1, *shape), ("exact", 5, True))
    else:
        col.equal("moduli-case1", predicted(1, *shape), ("at_least_if_stable", 5, None))
    col.equal("moduli-case1-special", (*predicted(1, "special"), special("N_dual", "N")),
              (True, True))
    if a == 0:
        col.equal("moduli-case2", predicted(2, *shape), ("exact", 4 * (2 * c - b) - 3, True))
        col.equal("moduli-case2-special", (*predicted(2, "special"), special("L_dual", "L")),
                  (True, True))
        smooth.append((2, ("L_dual", "L")))
    if b == 0:  # case 7, the base-swap image of case 2
        col.equal("moduli-case7", predicted(7, *shape), ("exact", 4 * (2 * c - a) - 3, True))
        col.equal("moduli-case7-special", (*predicted(7, "special"), special("M", "M_dual")),
                  (True, True))
        smooth.append((7, ("M", "M_dual")))
    # the point cases: dimension 0, neither the prediction nor the record special
    points = [(3, ("N", "L")), (4, ("L", "N_dual"))] if a == 0 else []
    if a == 0 and b == 0:
        points += [(8, ("M", "L")), (9, ("L", "M_dual"))]
    for k, pair in points:
        col.equal(f"moduli-case{k}",
                  (*predicted(k, "dimension_kind", "dimension", "special"), special(*pair)),
                  ("point", 0, False, False))

    def smooth_vs_h2() -> Iterator[str]:
        # generically smooth exactly where the computed h^2(End F) vanishes
        for k, pair in smooth:
            (smooth_k,) = predicted(k, "generically_smooth")
            h2 = _read(rec, *pair, "h2_endo")
            if pair not in rec or (smooth_k is True) != (h2 == 0):
                yield f"case {k}: generically_smooth {smooth_k}, h2_endo {h2}"

    col.first("moduli-smooth-h2", smooth_vs_h2())


def run_cell_checks(cell: tuple[int, int, int], cohomology: Failures) -> list[CheckResult]:
    """Every check of one triple; `cohomology` is cohomology_failures of its (a, b)."""
    a, b, c = cell
    col = _Collector(a, b, c)
    params = ScrollParams(a, b, c)
    # one classification and one enumeration per triple and per swapped
    # triple; at a = b the swap fixes the parameters
    bundles = classify_ulrich_line_bundles(params)
    sw = params.swapped()
    swapped_bundles = bundles if a == b else classify_ulrich_line_bundles(sw)
    _classification_checks(col, params, bundles, swapped_bundles)
    _chow_checks(col, params)
    _cohomology_checks(col, cohomology)
    records = enumerate_cases(params, bundles)
    swapped_records = records if a == b else enumerate_cases(sw, swapped_bundles)
    rec = {(r.sub_tag, r.quot_tag): r for r in records}
    _ext_checks(col, params, rec, swapped_records)
    _chern_checks(col, params, rec)
    _endo_checks(col, params, rec)
    predictions = {p.case_id: p for p in moduli_predictions(params, records)}
    _moduli_checks(col, params, rec, predictions)
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


def run_grid(cells: Iterable[tuple[int, int, int]]) -> list[CheckResult]:
    """Every check of the triples `cells` and of the fixed grids, by (a, b, c, check).

    Each (a, b) is swept once (`cohomology_failures`), and its cells and
    representative rows read that sweep.
    """
    results = []
    swept = {}
    for cell in sorted(cells):
        if cell[:2] not in swept:
            swept[cell[:2]] = cohomology_failures(ScrollParams(*cell))
        results.extend(run_cell_checks(cell, swept[cell[:2]]))
    results.extend(run_cohomology_box_checks(swept))
    results.extend(run_tower_checks())
    results.extend(run_tower_hypothesis_checks())
    results.extend(run_instanton_checks())
    results.sort(key=itemgetter(0, 1, 2, 3))  # (a, b, c, check)
    return results


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


def _tower_seeds(params: ScrollParams) -> tuple[int, int]:
    """h^1(N^U - N) and h^1(N - N^U), the seeds of the tower's h^1 sequence."""
    n_dual, n = tower_pair(params)
    return h_scroll(params, n_dual - n).h1, h_scroll(params, n - n_dual).h1


def _check_tower(params: ScrollParams) -> Iterator[str]:
    """Yield a message for each tower value that misses its closed form."""

    def expect(what: str, got, want) -> Iterator[str]:
        if got != want:
            yield f"tower {what}: got {got}, want {want} at {params}"

    n_dual, n = tower_pair(params)
    yield from expect("h^1 seeds", _tower_seeds(params), (3, 3))
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


def run_tower_hypothesis_checks() -> list[CheckResult]:
    """`tower-hypothesis` on the 9 cells a, b <= 2, c = a + b + 1.

    in_tower_hypothesis (0 <= a <= b <= 1) holds exactly where both h^1 seeds
    equal 3 and a <= b; the grid crosses its boundary in a and in b.
    """
    out = []
    for a in range(3):
        for b in range(3):
            params = ScrollParams(a, b, a + b + 1)
            col = _Collector(*params)
            col.equal("tower-hypothesis", in_tower_hypothesis(params),
                      _tower_seeds(params) == (3, 3) and a <= b)
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
            params = ScrollParams(0, 0, 1)
            records = enumerate_cases(params, classify_ulrich_line_bundles(params))
            p1 = next((p for p in moduli_predictions(params, records) if p.case_id == 1), None)
            col.check(
                "instanton-c1-crosscheck",
                all(t.predicted_dim == 5 for t in triples)
                and p1 is not None and (p1.dimension_kind, p1.dimension) == ("exact", 5),
            )
        out.extend(col.results)
    return out
