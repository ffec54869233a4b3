"""The benchmark workloads, their seeded inputs and the cohomology oracle.

Three workloads are fixed CLI grids; `cohom-batch` is a seeded batch of
library queries; why each was chosen is in README.md.  Each entry says what
one operation is (a grid cell or a query), because `failed` and `attempted`
count operations.  The smoke sizes keep the benchmark's own test fast; they
are never used for measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HELD_OUT_SEED = 7919  # kept back for confirming a claim made on other seeds

# The parameters of the verify module's representative cohomology box, copied
# here so that the inputs depend on the seed alone and not on program code.
COHOM_PARAMS = ((0, 0, 1), (0, 1, 2), (0, 2, 4), (1, 1, 3), (1, 2, 4), (2, 3, 6))
COHOM_XY = 200
COHOM_Z = 800


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments; empty for the library workload
    ops: int  # operations in one sample: grid cells, or queries
    smoke_argv: tuple[str, ...]
    smoke_ops: int

    def size(self, smoke: bool) -> tuple[tuple[str, ...], int]:
        return (self.smoke_argv, self.smoke_ops) if smoke else (self.argv, self.ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-grid",
            ("verify", "--a", "0..3", "--b", "0..3", "--normalize"),
            60,
            ("verify", "--a", "0", "--b", "0", "--c", "1..2"),
            2,
        ),
        Workload(
            "classify-sweep",
            ("classify", "--a", "0..1", "--b", "0..1", "--c", "3..50"),
            192,
            ("classify", "--a", "0", "--b", "0", "--c", "3..4"),
            2,
        ),
        Workload(
            "tower-deep",
            ("tower-report", "--a", "0..1", "--b", "1", "--c", "3", "--rmax", "100"),
            2,
            ("tower-report", "--a", "0", "--b", "1", "--c", "3", "--rmax", "6"),
            1,
        ),
        Workload(
            "cohom-batch",
            (),
            2000,
            (),
            40,
        ),
    )
}


def cohom_queries(seed: int, n: int) -> list[tuple[int, int, int, int, int, int]]:
    """n seeded queries (a, b, c, x, y, z): one h_scroll call each."""
    rng = random.Random(seed)
    return [
        (
            *rng.choice(COHOM_PARAMS),
            rng.randint(-COHOM_XY, COHOM_XY),
            rng.randint(-COHOM_XY, COHOM_XY),
            rng.randint(-COHOM_Z, COHOM_Z),
        )
        for _ in range(n)
    ]


# An oracle for cohomology-vector answers that shares no code with the
# program: the P^1 sums of the surface layer are summed in closed form instead
# of term by term, and nothing is memoized.


def _clipped_sum(c: int, t: int, n: int) -> int:
    """sum_{k=0}^{n-1} max(c + k t, 0)."""
    if t == 0:
        return n * max(c, 0)
    if t > 0:  # increasing terms: positive from k > -c / t on
        lo, hi = (0 if c > 0 else -c // t + 1), n
    else:  # decreasing terms: positive while k < c / |t|
        lo, hi = 0, (min(n, -(-c // -t)) if c > 0 else 0)
    if hi <= lo:
        return 0
    return (hi - lo) * c + t * ((hi - 1) * hi - (lo - 1) * lo) // 2


def _surface(a: int, alpha: int, beta: int) -> tuple[int, int, int]:
    if alpha == -1:
        return (0, 0, 0)
    if alpha < -1:  # Serre duality on F_a, K = (-2, -a-2)
        h0, h1, h2 = _surface(a, -2 - alpha, -a - 2 - beta)
        return (h2, h1, h0)
    n = alpha + 1  # O(beta - k a) on P^1 for 0 <= k <= alpha
    return (_clipped_sum(beta + 1, -a, n), _clipped_sum(-beta - 1, a, n), 0)


def reference_h(a: int, b: int, x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """(h0, h1, h2, h3) of O(x, y, z) on the scroll over F_a with twist b."""
    if x == -1:
        return (0, 0, 0, 0)
    if x < -1:  # Serre duality, K_X = (-2, -2, -(a+b+2))
        h0, h1, h2, h3 = reference_h(a, b, -2 - x, -2 - y, -(a + b + 2) - z)
        return (h3, h2, h1, h0)
    h = [0, 0, 0]
    for j in range(x + 1):
        for i, v in enumerate(_surface(a, y, z - j * b)):
            h[i] += v
    return (*h, 0)
