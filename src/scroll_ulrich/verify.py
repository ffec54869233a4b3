"""Grid verification: replays every numeric claim the library is built on.

Each check returns rows (a, b, c, check, status, detail); the CLI verify
command renders them and sets the exit code.  A claim of one part is one
`check` or `equal` row; a claim of many parts is a generator of failure
messages, which `_Collector.first` turns into one row that fails with the
first message, so a defect fails a row and never stops the run.  Cell
checks run per parameter triple, one cell after another in one process; the
fixed-grid checks (cohomology box at representative parameters, tower, the
tower hypothesis, instanton, the case numbering) run once.  The cohomology
box reads (a, b) and not c, so `run_grid` sweeps it once per (a, b)
(`cohomology_failures`), and every cell and representative row of that
family reads its first failures from that sweep.

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

The rank-two closed forms are one table, `_closed_forms`, of the rows that
read each record, by its two tags; a moduli row reads the prediction of the
record's case, as PAPER_CASES numbers it.  A record's rows run exactly where
both its tags are keys of named_line_bundles (case 2 at a = 0, case 7 at
b = 0), as do the dual pairs of two more rows: no row is placed by hand.

The transport reaches every field of a record.  Each involution maps the
record of (sub, quot) to the record of the image pair and predicts its
fields from sub_tag on: the tags by DUAL_TAG or SWAP_TAG, the case_id as
PAPER_CASES numbers those tags (each record is the dual image of its own
dual image, so every case_id meets this oracle), and the value fields.
Ulrich duality maps (sub, quot) to (quot^U, sub^U) and F to F^dual(k) for
k = K_X + 4h: it keeps ext^1 and the fields of End F (chi_endo, h2_endo,
special), since End F^dual(k) = End F and sub - quot is kept, moves c1 and
c2 to (2k - c1, k.k - k.c1 + c2), and the twisted classes by the same rule
with k = K_X + 2h, since F^U(-h) = (F(-h))^dual(K_X + 2h).  The base swap
keeps ext^1 and the End fields, maps every class by .swapped(), and
exchanges the two obstruction flags, since it exchanges the two bases.
Duality leaves the obstruction flags out: they held on every record of a
probe, but no argument for them is written down, and the swap pins each
flag against a second record already.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Set as AbstractSet
from fractions import Fraction
from operator import itemgetter
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
from .cohomology import chi, h_scroll, serre_dual
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
    reads twice_chi, the one Riemann-Roch polynomial, and cohomology.chi is
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
    col: _Collector, params: ScrollParams, forms: dict[str, DivisorClass], records: Bundles,
    swapped_records: Bundles,
):
    """`forms`: named_line_bundles(params); `records`, `swapped_records`: the
    classification of params and of params.swapped()."""
    _, d, g = numerical_invariants(params)
    col.equal("ulrich-count", len(records), expected_count(params))
    unnamed = [r.divisor.as_tuple() for r in records if r.tag == "other"]
    col.check("ulrich-no-unnamed", not unnamed, str(unnamed) if unnamed else "")
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
    image is affine in z, as chi is: an equality at lo - 1 and lo
    (hi and hi + 1) holds on the whole ray, and so does h^i >= 0 where h^i does
    not decrease outward, which the degree-bounds row checks at each outer point.

    Each class is evaluated once: a table local to this call keeps the vector
    of every class the sweep has asked for, keyed by the class, so a box point
    that returns as another point's Serre image (looked up by what serre_dual
    returns) or as its line's wall is read from the table.  The two wall
    vectors of a line are read once, before its points; each point reads its
    own class and its Serre image through the table's bound get, and each
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
            walls = []
            for z in (lo, hi):
                wall = _new(DivisorClass, (x, y, z))
                vec = get(wall)
                if vec is None:
                    vec = vectors[wall] = h_scroll(params, wall)
                walls.append(vec)
            (l0, l1, l2, l3), (u0, u1, u2, u3) = walls
            for z in range(lo - 1, hi + 2):
                div = _new(DivisorClass, (x, y, z))
                vec = get(div)
                if vec is None:
                    vec = vectors[div] = h_scroll(params, div)
                h0, h1, h2, h3 = vec
                if h0 - h1 + h2 - h3 != chi(params, div):
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
                if z < lo:
                    falls = h0 < l0 or h1 < l1 or h2 < l2 or h3 < l3
                elif z > hi:
                    falls = h0 < u0 or h1 < u1 or h2 < u2 or h3 < u3
                else:
                    falls = False
                if (h0 < 0 or h1 < 0 or h2 < 0 or h3 < 0 or (x >= 0 and h3 != 0)
                        or falls):
                    failures.append(("cohomology-degree-bounds", div))
    return failures


def _cohomology_checks(col: _Collector, failures: Failures, span: int = 3):
    """One row per claim of the box |x|, |y| <= span; `failures` may come from a wider sweep."""
    for name, what in _COHOMOLOGY_CLAIMS:
        col.first(name, (f"{what} at {div.as_tuple()}" for check, div in failures
                         if check == name and abs(div.x) <= span and abs(div.y) <= span))


# The paper's numbering of the fifteen unordered pairs of named bundles, case 1
# first.  Spelled here apart from extensions.CASE_OF_PAIR, from which the records,
# the orbits and the expected case set all derive: `ext-case-numbering` compares
# that table with this one, and `ext-involution-orbits` the case_id of each record.
PAPER_CASES = (
    ("N", "N_dual"), ("L", "L_dual"), ("L", "N"), ("L", "N_dual"), ("L_dual", "N"),
    ("L_dual", "N_dual"), ("M", "M_dual"), ("L", "M"), ("L", "M_dual"), ("L_dual", "M"),
    ("L_dual", "M_dual"), ("N", "M"), ("N", "M_dual"), ("N_dual", "M"), ("N_dual", "M_dual"),
)
_PAPER_CASE = {(s, q): case for case, (u, v) in enumerate(PAPER_CASES, start=1)
               for s, q in ((u, v), (v, u))}  # (sub_tag, quot_tag) -> case


def _check_involution_orbits(
    params: ScrollParams, tags: AbstractSet[str], records: Collection[Rank2ExtensionRecord],
    swapped_records: Records,
) -> Iterator[str]:
    """Yield a message for each failure of the case set or of an involution transport.

    `tags`: the tags of named_line_bundles(params), from which the expected case
    set derives; `records`, `swapped_records`: enumerate_cases of params and
    params.swapped().
    Each involution maps a record to the key (sub, quotient) of its image and
    to the fields from sub_tag on that it predicts there; the image is compared
    with the prediction as one tuple, and on a mismatch a message names each
    field that differs.  K_X + 4h, K_X + 2h, their squares and the dual and
    swap image of each bundle are computed once per cell.
    """
    expected = {case for pair, case in CASE_OF_PAIR.items() if pair <= tags}
    seen_cases = {r.case_id for r in records}
    if seen_cases != expected:
        yield f"cases {sorted(seen_cases)} != expected {sorted(expected)} at {params}"

    by_pair = {(r.sub, r.quotient): r for r in records}
    kx4h, kx2h = params.kx4h, params.canonical + 2 * params.h
    twice_kx4h, kx4h_sq = 2 * kx4h, mul_div_div(kx4h, kx4h, params)
    twice_kx2h, kx2h_sq = 2 * kx2h, mul_div_div(kx2h, kx2h, params)
    bundles = {d for pair in by_pair for d in pair}
    dual = {d: ulrich_dual(params, d) for d in bundles}
    swap = {d: d.swapped() for d in bundles}
    paper_case = _PAPER_CASE.get

    def dual_image(r: Rank2ExtensionRecord) -> tuple:
        # Ext^1(A, B) = Ext^1(B^U, A^U), and F goes to F^dual(K_X + 4h)
        sub, quot, sub_tag, quot_tag, _, ext, c1, c2, chi_endo, h2, special, c1_tw, c2_tw, _ = r
        sub_tag, quot_tag = DUAL_TAG[quot_tag], DUAL_TAG[sub_tag]  # of the image
        return (dual[quot], dual[sub]), (
            sub_tag, quot_tag, paper_case((sub_tag, quot_tag)), ext,
            twice_kx4h - c1, kx4h_sq - mul_div_div(kx4h, c1, params) + c2, chi_endo, h2, special,
            twice_kx2h - c1_tw, kx2h_sq - mul_div_div(kx2h, c1_tw, params) + c2_tw)

    def swap_image(r: Rank2ExtensionRecord) -> tuple:
        # the same extension over F_b: the two bases, so the two flags, exchange
        sub, quot, sub_tag, quot_tag, _, ext, c1, c2, chi_endo, h2, special, c1_tw, c2_tw, flags = r
        sub_tag, quot_tag = SWAP_TAG[sub_tag], SWAP_TAG[quot_tag]  # of the image
        from_a, from_b = flags
        return (swap[sub], swap[quot]), (
            sub_tag, quot_tag, paper_case((sub_tag, quot_tag)), ext, c1.swapped(), c2.swapped(),
            chi_endo, h2, special, c1_tw.swapped(), c2_tw.swapped(), (from_b, from_a))

    orbit = ORBIT_REPRESENTATIVE.get  # a case_id out of 1..15 fails the row, not the run
    for name, image_of, images, stop in (
        ("dual", dual_image, by_pair, -1),  # the obstruction flags left out
        ("swap", swap_image, {(r.sub, r.quotient): r for r in swapped_records}, None),
    ):
        for r in records:
            key, predicted = image_of(r)
            image = images.get(key)
            if image is None:
                yield f"{name} image of case {r.case_id} missing at {params}"
                continue
            if orbit(image.case_id) != orbit(r.case_id):
                yield f"{name} image of case {r.case_id} leaves its orbit"
            got = image[2:stop]
            if got != predicted:
                for field, value, want in zip(Rank2ExtensionRecord._fields[2:], got, predicted):
                    if value != want:
                        yield (f"{name} image of case {r.case_id}: {field} not transported"
                               f" at {params}")


# The fields a moduli row reads: those of the prediction of its record's case, then
# those of the record itself.
_SHAPE = ("dimension_kind", "dimension", "generically_smooth"), ()
_SPECIAL = ("special",), ("special",)
_POINT = ("dimension_kind", "dimension", "special"), ("special",)

# The record of each dual pair that the End rows read.
_DUAL_PAIRS = (("N_dual", "N"), ("L_dual", "L"), ("M", "M_dual"))


def _closed_forms(a: int, b: int, c: int) -> dict[tuple[str, str], tuple[tuple, ...]]:
    """The closed forms of the rank-two records: (sub_tag, quot_tag) -> its rows.

    Each row (check, field, form) compares `field` of the record with `form`,
    a class as a plain tuple; a moduli row's field is a pair of field names
    (_SHAPE, _SPECIAL, _POINT), of the prediction of the record's case and of
    the record.  ext^1(u, v) is the ext_dim of the record (v, u).
    """
    return {
        ("N_dual", "N"): (
            ("ext-N-NU", "ext_dim", a + 2 if a > 0 else 3),
            ("chern-case1-c1", "c1", (2, 2, 4 * c - a - b - 2)),
            ("chern-case1-c2", "c2", (4, 2 * (2 * c - b - 1), 2 * (2 * c - a - 1))),
            ("obstruction-case1", "obstruction", (True, True)),
            ("twist-case1-c1", "c1_twisted", (0, 0, 2 * c - a - b - 2)),
            ("twist-case1-c2", "c2_twisted", (2, a, b)),
            ("endo-case1-chi", "chi_endo", -4),
            # h^2(End F) is computed where its vanishing hypothesis holds, and refused (None)
            # where it fails
            ("endo-case1-h2", "h2_endo", max(b - 1, 0)) if a <= 1
            else ("endo-case1-h2-guard", "h2_endo", None),
            ("moduli-case1", _SHAPE,
             ("exact", 5, True) if max(a, b) <= 1 else ("at_least_if_stable", 5, None)),
            ("moduli-case1-special", _SPECIAL, (True, True)),
        ),
        ("N", "N_dual"): (("ext-NU-N", "ext_dim", b + 2 if b > 0 else 3),),
        ("L_dual", "L"): (
            ("ext-L-LU", "ext_dim", 3 * (2 * c - b - 1)),
            ("chern-case2-c1", "c1", (2, 2, 4 * c - b - 2)),
            ("chern-case2-c2", "c2", (2, 2 * (2 * c - b - 1), 2 * (3 * c - b - 1))),
            ("obstruction-case2", "obstruction", (False, True)),
            ("twist-case2-c1", "c1_twisted", (0, 0, 2 * c - b - 2)),
            ("twist-case2-c2", "c2_twisted", (0, 0, 2 * c - b)),
            ("endo-case2-chi", "chi_endo", 4 - 4 * (2 * c - b)),
            ("endo-case2-h2", "h2_endo", 0),
            ("moduli-case2", _SHAPE, ("exact", 4 * (2 * c - b) - 3, True)),
            ("moduli-case2-special", _SPECIAL, (True, True)),
        ),
        ("L", "L_dual"): (("ext-LU-L", "ext_dim", 2 * c - b + 1),),
        ("L", "N"): (("ext-N-L", "ext_dim", 0),),
        ("N", "L"): (
            ("ext-L-N", "ext_dim", 2 * c - b - 2),
            ("chern-case3-c1", "c1", (3, 0, 5 * c - b - 2)),
            ("chern-case3-c2", "c2", (0, 8 * c - 4 * b - 3, 0)),
            ("obstruction-case3", "obstruction", (True, True)),
            ("moduli-case3", _POINT, ("point", 0, False, False)),
        ),
        ("L", "N_dual"): (
            ("ext-NU-L", "ext_dim", 2 * c - b + 2),
            ("chern-case4-c1", "c1", (1, 2, 5 * c - 2 * b - 2)),
            ("chern-case4-c2", "c2", (2, 2 * c - b - 1, 2 * (3 * c - b - 1))),
            ("obstruction-case4", "obstruction", (True, True)),
            ("moduli-case4", _POINT, ("point", 0, False, False)),
        ),
        ("N", "L_dual"): (
            ("chern-case5-c1", "c1", (3, 2, 3 * c - 2)),
            ("chern-case5-c2", "c2", (4, 4 * c - 2 * b - 3, 2 * (2 * c - 1))),
            ("obstruction-case5", "obstruction", (True, True)),
        ),
        ("L_dual", "N_dual"): (
            ("chern-case6-c1", "c1", (1, 4, 3 * c - b - 2)),
            ("chern-case6-c2", "c2", (2, 2 * c - b - 1, 2 * (3 * c - b - 2))),
            ("obstruction-case6", "obstruction", (True, True)),
        ),
        ("M_dual", "M"): (
            ("chern-case7-c1", "c1", (2, 2, 4 * c - a - 2)),
            ("chern-case7-c2", "c2", (2, 2 * (3 * c - a - 1), 2 * (2 * c - a - 1))),
            ("obstruction-case7", "obstruction", (True, False)),
        ),
        ("M", "M_dual"): (
            ("endo-case7-chi", "chi_endo", 4 - 4 * (2 * c - a)),
            ("endo-case7-h2", "h2_endo", 0),
            ("moduli-case7", _SHAPE, ("exact", 4 * (2 * c - a) - 3, True)),
            ("moduli-case7-special", _SPECIAL, (True, True)),
        ),
        ("M", "L"): (
            ("ext-L-M", "ext_dim", 8 * c - 4),
            ("chern-case8-c1", "c1", (3, 1, 2 * (2 * c - 1))),
            ("chern-case8-c2", "c2", (1, 7 * c - 3, 3 * c - 1)),
            ("obstruction-case8", "obstruction", (True, True)),
            ("moduli-case8", _POINT, ("point", 0, False, False)),
        ),
        ("M_dual", "L"): (("ext-L-MU", "ext_dim", 0),),
        ("L", "M_dual"): (
            ("ext-MU-L", "ext_dim", 0),
            ("moduli-case9", _POINT, ("point", 0, False, False)),
        ),
    }


def _rank2_checks(
    col: _Collector, params: ScrollParams, tags: AbstractSet[str], rec: ByTags,
    predictions: Predictions,
):
    """The rows of _closed_forms on each record whose two tags are in `tags`, the
    tags of named_line_bundles(params); a missing record fails its rows."""
    for key, rows in _closed_forms(*params).items():
        if key[0] not in tags or key[1] not in tags:
            continue
        r = rec.get(key)
        p = predictions.get(_PAPER_CASE[key])  # a case without records has none
        for name, field, form in rows:
            if r is None:
                col.check(name, False, f"record {key} missing")
                continue
            if isinstance(field, str):
                value = getattr(r, field)
                value = tuple(value) if isinstance(value, tuple) else value
            else:
                of_prediction, of_record = field
                value = (*(getattr(p, f, None) for f in of_prediction),
                         *(getattr(r, f) for f in of_record))
            col.equal(name, value, form)

    # slope of every extension c1 equals d + g - 1 per rank
    _, d, g = numerical_invariants(params)
    mu = Fraction(d + g - 1)
    col.first("extension-slope",
              (f"case {r.case_id}" for r in rec.values() if slope(params, r.c1, 2) != mu))

    # each dual pair whose two tags are named: chi(End F) is non-positive (positive-
    # dimensional deformations), and its case is generically smooth exactly where the
    # computed h^2(End F) vanishes
    pairs = [key for key in _DUAL_PAIRS if key[0] in tags and key[1] in tags]
    col.check("endo-dual-pairs-nonpositive", all(key in rec and rec[key].chi_endo <= 0
                                                 for key in pairs))

    def smooth_vs_h2() -> Iterator[str]:
        for key in pairs:
            k = _PAPER_CASE[key]
            smooth = getattr(predictions.get(k), "generically_smooth", None)
            h2 = getattr(rec.get(key), "h2_endo", None)
            if key not in rec or (smooth is True) != (h2 == 0):
                yield f"case {k}: generically_smooth {smooth}, h2_endo {h2}"

    col.first("moduli-smooth-h2", smooth_vs_h2())


def _predictions(params: ScrollParams, records: Records) -> Predictions:
    """moduli_predictions by case, of the records numbered 1..15: it reads each case's
    orbit, and a case_id out of the numbering fails ext-involution-orbits, not the run."""
    numbered = [r for r in records if r.case_id in ORBIT_REPRESENTATIVE]
    return {p.case_id: p for p in moduli_predictions(params, numbered)}


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
    forms = named_line_bundles(params)
    _classification_checks(col, params, forms, bundles, swapped_bundles)
    _chow_checks(col, params)
    _cohomology_checks(col, cohomology)
    records = enumerate_cases(params, bundles)
    swapped_records = records if a == b else enumerate_cases(sw, swapped_bundles)
    rec = {(r.sub_tag, r.quot_tag): r for r in records}
    tags = forms.keys()
    # the ordered-pair matrix transports along both involutions
    col.first("ext-involution-orbits",
              _check_involution_orbits(params, tags, rec.values(), swapped_records))
    _rank2_checks(col, params, tags, rec, _predictions(params, records))
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
    results.extend(run_case_numbering_checks())
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
    """Yield a message for each tower value that misses its closed form.

    Each rank compares all its values as one tuple with their closed forms; the
    labels and messages are built only when that tuple differs.
    """
    n_dual, n = tower_pair(params)
    seeds = _tower_seeds(params)
    if seeds != (3, 3):
        yield f"tower h^1 seeds: got {seeds}, want {(3, 3)} at {params}"
    h1 = tower_h1_recursion(params, TOWER_RANKS)
    _, d, g = numerical_invariants(params)
    mu = Fraction(d + g - 1)
    for r, c1, c2, c3 in iter_tower(params, TOWER_RANKS):
        odd = r % 2
        chi_next = chi_tower_vs_line(params, r, (n_dual, n)[odd])  # Q_{r+1}
        chi_end = chi_endo_tower(params, r)
        h1_r = h1[r - 1]
        got = ((c1, c2, c3), slope(params, c1, r), chi_next,
               chi_tower_vs_line(params, r, (n, n_dual)[odd]), chi_end, moduli_dim_tower(r),
               h1_r, h1_r)
        want = ((_closed_c1(params, r), _closed_c2(params, r), _closed_c3(params, r)), mu,
                -r - 2 if odd else -r, -r + 2 if odd else -r, -r * r + 2 if odd else -r * r,
                1 - chi_end, r + 2 if odd else r + 1, (0 if odd else 1) - chi_next)
        if r >= 2:
            got += (moduli_dim_gap(r),)
            want += (moduli_dim_tower(r) - moduli_dim_tower(r - 1) + 1 - h1[r - 2],)
        if got != want:
            labels = (f"Chern classes at r={r}", f"slope at r={r}", f"chi vs Q_{r + 1} at r={r}",
                      f"chi vs Q_{r} at r={r}", f"chi(End) at r={r}",
                      f"moduli dim vs 1 - chi(End) at r={r}", f"h^1 at r={r}",
                      f"h^1 vs h^0 - chi at r={r}", f"gap at r={r}")
            for what, value, closed in zip(labels, got, want):
                if value != closed:
                    yield f"tower {what}: got {value}, want {closed} at {params}"


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


def _check_case_numbering() -> Iterator[str]:
    """Yield a message for each pair that CASE_OF_PAIR numbers otherwise than PAPER_CASES."""
    for case, pair in enumerate(PAPER_CASES, start=1):
        got = CASE_OF_PAIR.get(frozenset(pair))
        if got != case:
            yield f"pair {pair} numbered {got}, want case {case}"
    if len(CASE_OF_PAIR) != len(PAPER_CASES):
        yield f"{len(CASE_OF_PAIR)} pairs numbered, want {len(PAPER_CASES)}"


def run_case_numbering_checks() -> list[CheckResult]:
    """`ext-case-numbering`, once, at (0, 0, 1): the least cell where all fifteen pairs occur."""
    col = _Collector(0, 0, 1)
    col.first("ext-case-numbering", _check_case_numbering())
    return col.results


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
            p1 = _predictions(params, records).get(1)
            col.check(
                "instanton-c1-crosscheck",
                all(t.predicted_dim == 5 for t in triples)
                and p1 is not None and (p1.dimension_kind, p1.dimension) == ("exact", 5),
            )
        out.extend(col.results)
    return out
