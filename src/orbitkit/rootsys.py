"""Root-system data for the simple Lie types, in exact integer arithmetic.

Realizations use the standard ambient coordinates: A_n lives in n+1
coordinates summing to zero, B/C/D_n in n coordinates, G_2 in three
sum-zero coordinates, and the E/F systems in coordinates scaled by 2 so
that every root vector is integral.  Exceptional systems are generated
by closing the simple roots under simple reflections driven by the
Cartan matrix; classical systems are written down directly.

Every constructed system is self-checked: each positive root must have
a unique nonnegative-integer expansion in the simple roots, and the
Cartan matrix recomputed from inner products must match expectations.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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
    "principal_h_eigenvalue",
    "regular_orbit_dimension",
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


def _unit(n: int, i: int, value: int = 1) -> Vector:
    v = [0] * n
    v[i] = value
    return tuple(v)


def _vec(dim: int, entries: dict[int, int]) -> Vector:
    v = [0] * dim
    for k, val in entries.items():
        v[k] = val
    return tuple(v)


def _classical_data(t: LieType):
    """(ambient dim, simple roots, positive roots, expansion solver)."""
    n = t.rank
    fam = t.family

    if fam == "A":
        dim = n + 1
        simple = tuple(_vec(dim, {i: 1, i + 1: -1}) for i in range(n))
        positive = [_vec(dim, {i: 1, j: -1})
                    for i in range(dim) for j in range(i + 1, dim)]

        def expand(v: Vector) -> tuple[int, ...]:
            return tuple(accumulate(v[:n]))

        return dim, simple, positive, expand

    dim = n
    extra = []
    if fam == "B":
        last = _unit(n, n - 1)
        extra = [_unit(n, i) for i in range(n)]
    elif fam == "C":
        last = _unit(n, n - 1, 2)
        extra = [_unit(n, i, 2) for i in range(n)]
    else:  # D
        last = _vec(n, {n - 2: 1, n - 1: 1})
    simple = tuple(_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)) + (last,)
    positive = []
    for i in range(n):
        for j in range(i + 1, n):
            positive.append(_vec(n, {i: 1, j: -1}))
            positive.append(_vec(n, {i: 1, j: 1}))
    positive.extend(extra)

    if fam == "B":
        def expand(v: Vector) -> tuple[int, ...]:
            return tuple(accumulate(v))
    elif fam == "C":
        def expand(v: Vector) -> tuple[int, ...]:
            out = list(accumulate(v[: n - 1]))
            half, rem = divmod(v[n - 1] + out[n - 2], 2)
            if rem:
                raise RootSystemConsistencyError(f"non-integral expansion of {v} in {t}")
            out.append(half)
            return tuple(out)
    else:
        def expand(v: Vector) -> tuple[int, ...]:
            out = list(accumulate(v[: n - 2]))
            half, rem = divmod(v[n - 2] + v[n - 1] + out[n - 3], 2)
            if rem:
                raise RootSystemConsistencyError(f"non-integral expansion of {v} in {t}")
            out.append(half - v[n - 1])
            out.append(half)
            return tuple(out)

    return dim, simple, positive, expand


# Exceptional simple roots (coordinates doubled where the textbook
# realization uses halves) and their Cartan matrices.
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


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _sparse(v: Vector) -> tuple[tuple[int, int], ...]:
    return tuple((k, x) for k, x in enumerate(v) if x)


def _cartan_from_simple(simple: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    # Simple roots have few nonzero entries, so pair them sparsely; the
    # naive dense double loop is quadratic-times-ambient and shows up at
    # rank ~100.
    sparse = [_sparse(a) for a in simple]
    norms = [sum(x * x for _, x in s) for s in sparse]
    rows = []
    for sa in sparse:
        row = []
        for sb, den in zip(sparse, norms):
            bmap = dict(sb)
            num = 2 * sum(x * bmap.get(k, 0) for k, x in sa)
            if num % den:
                raise RootSystemConsistencyError(
                    f"non-integral Cartan pairing; norms {den}")
            row.append(num // den)
        rows.append(tuple(row))
    return tuple(rows)


def _closure_from_cartan(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All roots as coefficient vectors over the simple roots, generated
    by repeated simple reflections."""
    rank = len(cartan)
    roots = {_unit(rank, i) for i in range(rank)}
    frontier = set(roots)
    while frontier:
        fresh = set()
        for c in frontier:
            for j in range(rank):
                pairing = sum(c[i] * cartan[i][j] for i in range(rank))
                image = list(c)
                image[j] -= pairing
                image = tuple(image)
                if image not in roots:
                    roots.add(image)
                    fresh.add(image)
        frontier = fresh
    for c in roots:
        if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            raise RootSystemConsistencyError(f"mixed-sign root coefficients {c}")
    return sorted(c for c in roots if all(x >= 0 for x in c))


def _exceptional_data(t: LieType):
    if t.family == "G":
        simple, cartan = _G2_SIMPLE, _G2_CARTAN
    elif t.family == "F":
        simple, cartan = _F4_SIMPLE, _F4_CARTAN
    else:
        simple = _E8_SIMPLE[: t.rank]
        cartan = _cartan_from_simple(simple)
    coeff_roots = _closure_from_cartan(cartan)
    dim = len(simple[0])
    positive = []
    expansions = {}
    for coeffs in coeff_roots:
        vec = [0] * dim
        for c, alpha in zip(coeffs, simple):
            if c:
                for k, a in enumerate(alpha):
                    if a:
                        vec[k] += c * a
        vec = tuple(vec)
        positive.append(vec)
        expansions[vec] = coeffs
    return dim, tuple(simple), positive, cartan, expansions


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
    if t.family in "ABCD":
        dim, simple, positive, expand = _classical_data(t)
        cartan = _cartan_from_simple(simple)
        expansions = {}
        for v in positive:
            coeffs = expand(v)
            expansions[v] = coeffs
    else:
        dim, simple, positive, cartan, expansions = _exceptional_data(t)
        if _cartan_from_simple(simple) != tuple(tuple(row) for row in cartan):
            raise RootSystemConsistencyError(
                f"ambient Cartan matrix disagrees with table for {t}")

    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise RootSystemConsistencyError(f"Cartan diagonal entry {row[i]} != 2 in {t}")
        for j, entry in enumerate(row):
            if i != j and entry not in (0, -1, -2, -3):
                raise RootSystemConsistencyError(
                    f"Cartan off-diagonal entry {entry} out of range in {t}")

    sparse_simple = [_sparse(a) for a in simple]
    heights = {}
    for v in positive:
        coeffs = expansions[v]
        if any(c < 0 for c in coeffs):
            raise RootSystemConsistencyError(f"negative expansion coefficient for {v} in {t}")
        if _recombine(sparse_simple, coeffs, dim) != v:
            raise RootSystemConsistencyError(f"expansion of {v} does not recombine in {t}")
        h = sum(coeffs)
        if h < 1:
            raise RootSystemConsistencyError(f"nonpositive height for {v} in {t}")
        heights[v] = h

    order = sorted(positive, key=lambda v: (heights[v], v))
    for v in order:
        if (heights[v] == 1) != (v in simple):
            raise RootSystemConsistencyError(f"height-1 roots must be simple; offender {v} in {t}")

    return RootSystem(
        lie_type=t,
        simple_roots=tuple(simple),
        positive_roots=tuple(order),
        heights=MappingProxyType(heights),
        expansions=MappingProxyType(expansions),
        cartan_matrix=tuple(tuple(row) for row in cartan),
    )


@lru_cache(maxsize=None)
def positive_root_count(t: LieType) -> int:
    """Number of positive roots, from the same generation code as
    build_root_system but without materializing heights and expansions;
    large-rank dimension sweeps only need the count."""
    if t.family not in "ABCD" or t.rank <= 12:
        return len(build_root_system(t).positive_roots)
    _, _, positive, _ = _classical_data(t)
    return len(positive)


def group_dimension(t: LieType) -> int:
    """Dimension of the simple group: number of roots plus the rank."""
    return 2 * positive_root_count(t) + t.rank


def principal_h_eigenvalue(rs: RootSystem, root: Sequence[int]) -> int:
    """Adjoint eigenvalue, on the given positive root space, of the
    semisimple generator of a principal sl2-triple: twice the root
    height, hence always even and at least 2 (exactly 2 on simple
    roots)."""
    return 2 * rs.height(root)


def regular_orbit_dimension(t: LieType) -> int:
    """Dimension of the conjugation orbit of a regular element: the
    group dimension minus the rank."""
    n = t.rank
    return group_dimension(t) - n
