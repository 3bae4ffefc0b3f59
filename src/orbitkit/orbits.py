"""Nilpotent-orbit counts and type-A orbit data.

Counts follow the Bala-Carter parametrization: type A_n orbits are the
partitions of n+1; types B/C/D are counted by pairs of partitions
(lambda, mu) with a congruence on 2|lambda| + |mu| (resp. a sum
condition for C) and a distinctness constraint on mu; the five
exceptional algebras carry a fixed table.  All counts include the zero
orbit.  The D_m count is the verbatim pair-of-partitions formula; it
does not double very even partitions (see OrbitCount.notes).

The centralizer oracle recomputes Jordan-type centralizer dimensions
from scratch, from the exact rank (`echelon.rank`) of the commutator
linear system, so the conjugate-partition dimension formula is tested
against something it does not share code with.  The Jordan matrix N is
block diagonal, so block (a, b) of [N, Y] involves only block (a, b) of
Y: the oracle solves each pair of block sizes once per process, in a
memo of at most ORACLE_SIZE_CAP**2 entries.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .partitions import (
    Partition,
    PartitionConstraint,
    _check_partition,
    _counts,
    count_partitions,
    enumerate_partitions,
)
from .echelon import rank
from .rootsys import LieType, RootSystemConsistencyError, _check_lie_type

__all__ = [
    "OrbitCount",
    "CapacityError",
    "nilpotent_orbit_count",
    "classify_nilpotent_orbits_typeA",
    "orbit_dimension_typeA",
    "centralizer_dimension_oracle",
    "subregular_partition",
]

EXCEPTIONAL_ORBIT_COUNTS = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}

# Enumeration caps: classification materializes every partition, and the
# centralizer oracle solves an ab x ab system per pair of block sizes (a, b).
CLASSIFY_RANK_CAP = 40
ORACLE_SIZE_CAP = 8

_ZERO_ORBIT_NOTE = "count includes the zero orbit"
_D_FORMULA_NOTE = ("verbatim pair-of-partitions formula; very even partitions"
                   " are not counted twice")


class CapacityError(ValueError):
    """Input exceeds an enumeration or linear-algebra size cap."""


@dataclass(frozen=True)
class OrbitCount:
    lie_type: LieType
    count: int
    method: str  # "partition-formula" | "exceptional-table"
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("orbit count must include at least the zero orbit")


def _pair_count(total: int, lam_weight: int, mu_constraint: PartitionConstraint) -> int:
    """Pairs (lambda, mu) with lam_weight*|lambda| + |mu| = total and mu
    constrained: |lambda| = 0, 1, ... meets |mu| = total, total - lam_weight, ..."""
    lam_max = total // lam_weight
    lam = _counts(lam_max, PartitionConstraint.UNRESTRICTED)
    mu = _counts(total, mu_constraint)
    return sum(map(operator.mul, lam[:lam_max + 1], mu[total::-lam_weight]))


def nilpotent_orbit_count(t: LieType) -> OrbitCount:
    """Number of nilpotent adjoint orbits of the simple algebra of type t."""
    _check_lie_type(t)
    fam, m = t.family, t.rank
    notes = (_ZERO_ORBIT_NOTE,)
    if fam == "A":
        return OrbitCount(t, count_partitions(m + 1), "partition-formula", notes)
    if fam == "B":
        n = _pair_count(2 * m + 1, 2, PartitionConstraint.DISTINCT_ODD_PARTS)
        return OrbitCount(t, n, "partition-formula", notes)
    if fam == "C":
        n = _pair_count(m, 1, PartitionConstraint.DISTINCT_PARTS)
        return OrbitCount(t, n, "partition-formula", notes)
    if fam == "D":
        n = _pair_count(2 * m, 2, PartitionConstraint.DISTINCT_ODD_PARTS)
        return OrbitCount(t, n, "partition-formula", notes + (_D_FORMULA_NOTE,))
    return OrbitCount(t, EXCEPTIONAL_ORBIT_COUNTS[str(t)], "exceptional-table", notes)


def classify_nilpotent_orbits_typeA(n: int) -> list[Partition]:
    """Jordan types of the nilpotent orbits of sl_{n+1}: all partitions
    of n+1 in canonical order."""
    t = LieType("A", n)  # refuses every rank that is not a positive int first
    if n > CLASSIFY_RANK_CAP:
        raise CapacityError(
            f"rank {n} exceeds the classification cap {CLASSIFY_RANK_CAP}")
    expected = nilpotent_orbit_count(t).count
    parts = enumerate_partitions(n + 1)
    if len(parts) != expected:
        raise RootSystemConsistencyError(
            f"classify A{n}: enumerated {len(parts)} Jordan types, but the"
            f" partition formula counts {expected}")
    return parts


def orbit_dimension_typeA(p: Partition) -> int:
    """Dimension of the GL-conjugation orbit of a nilpotent Jordan type:
    total^2 minus the sum of squared conjugate parts.  Weight each cell in
    row i of the diagram by 2i-1: column j sums to p*_j^2 (the first p*_j
    odd numbers) and row i to (2i-1)*p_i, so both sums are equal."""
    _check_partition(p)
    if not len(p):
        raise ValueError("Jordan type of a nilpotent endomorphism is nonempty")
    k = p.total
    return k * k - sum(map(operator.mul, range(1, 2 * len(p), 2), p))


@lru_cache(maxsize=None)
def _block_pair_kernel(a: int, b: int) -> int:
    """Dimension of the a x b matrices Y with J_a Y = Y J_b, for nilpotent
    Jordan blocks J_a and J_b: the kernel of an ab x ab system."""
    rows = []
    for i in range(a):
        for j in range(b):
            # coefficient of Y[t][s] (key (t, s)) in (J_a Y - Y J_b)[i][j]
            row = {}
            if i + 1 < a:
                row[i + 1, j] = 1
            if j > 0:
                row[i, j - 1] = -1
            rows.append(row)
    return a * b - rank(rows)


def centralizer_dimension_oracle(p: Partition) -> int:
    """Dimension of the space of k x k matrices commuting with the
    nilpotent Jordan matrix N of type p, computed as the exact kernel
    dimension of the commutator system [N, Y] = 0, one pair of Jordan
    blocks at a time; each pair of block sizes is solved once per process."""
    _check_partition(p)
    k = p.total
    if k > ORACLE_SIZE_CAP:
        raise CapacityError(f"oracle solves block systems of up to {max(p) ** 2} rows"
                            f" for a partition of {k}; cap is total <= {ORACLE_SIZE_CAP}")
    sizes = Counter(p)
    return sum(m * n * _block_pair_kernel(a, b)
               for a, m in sizes.items() for b, n in sizes.items())


_SUBREGULAR_SUPPORT = ("A_r with r >= 2", "D_l with l >= 4", "B3")


def subregular_partition(t: LieType) -> Partition:
    """Jordan type of the subregular nilpotent orbit, for the cases
    where a partition labels it: (r,1) in A_r, (2l-3,3) in D_l, and
    (5,1,1) in B3."""
    _check_lie_type(t)
    fam, r = t.family, t.rank
    if fam == "A" and r >= 2:
        return Partition((r, 1))
    if fam == "D":  # construction guarantees r >= 4
        return Partition((2 * r - 3, 3))
    if fam == "B" and r == 3:
        return Partition((5, 1, 1))
    raise ValueError(
        f"no subregular partition recorded for {t}; supported cases:"
        f" {', '.join(_SUBREGULAR_SUPPORT)}")
