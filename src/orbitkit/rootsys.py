"""Root-system data for the simple Lie types, in exact integer arithmetic.

Realizations use the standard ambient coordinates: A_n lives in n+1
coordinates summing to zero, B/C/D_n in n coordinates, G_2 in three
sum-zero coordinates, and the E/F systems in coordinates scaled by 2 so
that every root vector is integral.  Every type is built one way: the
Cartan matrix is computed from the ambient simple roots, and the positive
roots are the simple roots closed under the simple reflections.

Self-checks raise RootSystemConsistencyError.  Before the closure runs:
a zero simple root, a non-integral Cartan pairing, a G2/F4 matrix unlike
its table, an off-diagonal Cartan entry outside 0..-3, or a singular
Cartan matrix.  Nonzero Euclidean simple roots with such entries and a
Cartan matrix of full rank are independent, so their Cartan matrix is
of finite type and the closure ends.  After it: a mixed-sign reflected
root, or a height-1 root that is not simple.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

__all__ = [
    "LieType",
    "RootSystem",
    "InvalidLieTypeError",
    "RootSystemConsistencyError",
    "build_root_system",
    "group_dimension",
    "positive_root_count",
]

Vector = tuple[int, ...]

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


class InvalidLieTypeError(ValueError):
    """Raised when a family/rank combination violates the type constraints."""


class RootSystemConsistencyError(RuntimeError):
    """Internal construction invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class LieType:
    """Simple type label.  Low-rank coincidences are canonicalized on
    construction: C_2 becomes B_2 and D_3 becomes A_3, so equal labels
    mean equal root data."""

    family: str
    rank: int

    def __post_init__(self):
        family, rank = self.family, self.rank
        if family not in "ABCDEFG":
            raise InvalidLieTypeError(f"unknown family {family!r}; expected one of A..G")
        if not isinstance(rank, int) or rank < 1:
            raise InvalidLieTypeError(f"rank must be a positive integer, got {rank!r}")
        if family == "C" and rank == 2:
            family, rank = "B", 2
        elif family == "D" and rank == 3:
            family, rank = "A", 3
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        minimum = {"A": 1, "B": 2, "C": 3, "D": 4}
        if family in minimum:
            if rank < minimum[family]:
                raise InvalidLieTypeError(
                    f"family {self.family} requires rank >= {minimum[self.family]}"
                    f" (after canonicalization), got {self.family}{self.rank}")
        elif rank not in _EXCEPTIONAL_RANKS[family]:
            allowed = ",".join(str(r) for r in _EXCEPTIONAL_RANKS[family])
            raise InvalidLieTypeError(
                f"family {family} only exists in rank {allowed}, got {family}{rank}")

    @classmethod
    def from_string(cls, text: str) -> "LieType":
        """Parse a strict label like "B3" or "E6" (no whitespace)."""
        m = re.fullmatch(r"([A-G])([1-9][0-9]*)", text)
        if not m:
            raise InvalidLieTypeError(
                f"cannot parse Lie type {text!r}; expected a family letter A-G"
                " followed by the rank, e.g. B3")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    lie_type: LieType
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    heights: Mapping[Vector, int]
    expansions: Mapping[Vector, tuple[int, ...]]
    cartan_matrix: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return 2 * len(self.positive_roots) + self.lie_type.rank

    def height(self, root: Sequence[int]) -> int:
        key = tuple(root)
        if key not in self.heights:
            raise ValueError(f"{key} is not a positive root of {self.lie_type}")
        return self.heights[key]


# Exceptional simple roots (coordinates doubled where the textbook
# realization uses halves) and the Cartan matrices they must give.
_G2_SIMPLE = ((1, -1, 0), (-2, 1, 1))
_G2_CARTAN = ((2, -1), (-3, 2))

_F4_SIMPLE = ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
_F4_CARTAN = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))

_E8_SIMPLE = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


def _simple_roots(t: LieType) -> tuple[Vector, ...]:
    """Ambient simple roots: the chain e_i - e_(i+1), closed by e_n (B),
    2e_n (C) or e_(n-1) + e_n (D); the tables above for G2, F4, E6-E8."""
    if t.family == "G":
        return _G2_SIMPLE
    if t.family == "F":
        return _F4_SIMPLE
    if t.family == "E":
        return _E8_SIMPLE[: t.rank]
    n = t.rank
    dim = n + 1 if t.family == "A" else n
    roots = [[0] * dim for _ in range(n)]
    for i in range(dim - 1):
        roots[i][i], roots[i][i + 1] = 1, -1
    if t.family != "A":
        roots[-1][-1] = 2 if t.family == "C" else 1
        if t.family == "D":
            roots[-1][-2] = 1
    return tuple(map(tuple, roots))


def _sparse(v: Vector) -> tuple[tuple[int, int], ...]:
    return tuple((k, x) for k, x in enumerate(v) if x)


def _cartan_from_simple(simple: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is 2(a_i, a_j)/(a_j, a_j); raises unless every root is
    nonzero (so the diagonal is exactly 2) and every entry integral."""
    # A classical simple root has at most two nonzero entries, so sparse
    # pairing costs rank^2 rather than rank^2 * dim (a third of the dense
    # time over the rank <= 30 builds in the tests).
    sparse = [_sparse(a) for a in simple]
    maps = [dict(s) for s in sparse]
    norms = [sum(x * x for _, x in s) for s in sparse]
    if 0 in norms:
        raise RootSystemConsistencyError(f"simple root {norms.index(0) + 1} is zero")
    rows = []
    for sa in sparse:
        row = []
        for bmap, den in zip(maps, norms):
            num = 2 * sum(x * bmap.get(k, 0) for k, x in sa)
            if num % den:
                raise RootSystemConsistencyError(
                    f"non-integral Cartan pairing; norms {den}")
            row.append(num // den)
        rows.append(tuple(row))
    return tuple(rows)


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank of an integer matrix, eliminating in place without fractions:
    each row r below the pivot row becomes lead*r - f*pivot_row, divided
    by the gcd of its entries.  Scaling a row by a nonzero integer leaves
    the rank unchanged, and the gcd keeps the entries small."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        lead = pivot_row[c]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                row = [lead * a - f * b for a, b in zip(rows[r], pivot_row)]
                g = math.gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    return rank


def _closure_from_cartan(cartan: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Positive roots as coefficient vectors over the simple roots.

    s_j(c) = c - <c, a_j^v> a_j permutes the positive roots other than a_j
    (Humphreys, Introduction to Lie Algebras, 10.2), and every positive
    root of height > 1 is s_j of a lower one, so closing the simple roots
    under the s_j, dropping -a_j, yields them all."""
    rank = len(cartan)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in cartan]
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for c in frontier:
            pairings = [0] * rank
            for i, ci in enumerate(c):
                if ci:
                    for j, x in rows[i]:
                        pairings[j] += ci * x
            for j, p in enumerate(pairings):
                if not p:
                    continue
                image = list(c)
                image[j] -= p
                if image[j] < 0:
                    if any(x > 0 for x in image):
                        raise RootSystemConsistencyError(
                            f"mixed-sign root coefficients {tuple(image)}")
                    continue
                image = tuple(image)
                if image not in roots:
                    roots.add(image)
                    fresh.append(image)
        frontier = fresh
    return roots


def _recombine(sparse_simple, coeffs: Sequence[int], dim: int) -> Vector:
    vec = [0] * dim
    for c, alpha in zip(coeffs, sparse_simple):
        if c:
            for k, a in alpha:
                vec[k] += c * a
    return tuple(vec)


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """Construct the full positive root system for a valid simple type.

    Positive roots are ordered by (height, lexicographic), so repeated
    builds are identical.
    """
    simple = _simple_roots(t)
    cartan = _cartan_from_simple(simple)
    table = {"G": _G2_CARTAN, "F": _F4_CARTAN}.get(t.family)
    if table is not None and cartan != table:
        raise RootSystemConsistencyError(
            f"ambient Cartan matrix disagrees with table for {t}")
    for i, row in enumerate(cartan):
        for j, entry in enumerate(row):
            if i != j and entry not in (0, -1, -2, -3):
                raise RootSystemConsistencyError(
                    f"Cartan off-diagonal entry {entry} out of range in {t}")
    if _rank_exact([list(row) for row in cartan]) < len(cartan):
        raise RootSystemConsistencyError(
            f"singular Cartan matrix in {t}: the simple roots are dependent")

    sparse_simple = [_sparse(a) for a in simple]
    dim = len(simple[0])
    roots = sorted((sum(c), _recombine(sparse_simple, c, dim), c)
                   for c in _closure_from_cartan(cartan))
    for h, v, _ in roots:
        if (h == 1) != (v in simple):
            raise RootSystemConsistencyError(f"height-1 roots must be simple; offender {v} in {t}")

    return RootSystem(
        lie_type=t,
        simple_roots=simple,
        positive_roots=tuple(v for _, v, _ in roots),
        heights=MappingProxyType({v: h for h, v, _ in roots}),
        expansions=MappingProxyType({v: c for _, v, c in roots}),
        cartan_matrix=cartan,
    )


@lru_cache(maxsize=None)
def positive_root_count(t: LieType) -> int:
    """Number of positive roots.  The classical families use the closed
    forms n(n+1)/2 (A), n^2 (B, C) and n(n-1) (D) at every rank, which
    the tests match against the full build; the exceptional types count
    the self-checked build_root_system."""
    n = t.rank
    if t.family not in "ABCD":
        return len(build_root_system(t).positive_roots)
    return {"A": n * (n + 1) // 2, "D": n * (n - 1)}.get(t.family, n * n)


@lru_cache(maxsize=None)
def group_dimension(t: LieType) -> int:
    """Dimension of the simple group: number of roots plus the rank."""
    return 2 * positive_root_count(t) + t.rank
