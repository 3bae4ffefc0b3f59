"""Nilpotent-orbit counts and type-A orbit data.

Counts follow the Bala-Carter parametrization: type A_n orbits are the
partitions of n+1; types B/C/D are counted by pairs of partitions
(lambda, mu) with a congruence on 2|lambda| + |mu| (resp. a sum
condition for C) and a distinctness constraint on mu; the five
exceptional algebras carry a fixed table.  All counts include the zero
orbit.  The D_m count is the verbatim pair-of-partitions formula; it
does not double very even partitions (see OrbitCount.notes).

The centralizer oracle recomputes Jordan-type centralizer dimensions
from scratch, by solving the commutator linear system exactly with
fraction-free integer elimination, so the conjugate-partition dimension
formula is tested against something it does not share code with.
"""

from dataclasses import dataclass, field

from .partitions import (
    Partition,
    PartitionConstraint,
    conjugate_partition,
    count_partitions,
    enumerate_partitions,
)
from .rootsys import LieType, RootSystemConsistencyError, _rank_exact

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
# centralizer oracle solves a k^2 x k^2 linear system.
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
    constrained.  The mu table is sized for the largest total first, so
    the loop reads it without growing it step by step."""
    count_partitions(total, mu_constraint)
    count = 0
    for mu_total in range(total % lam_weight, total + 1, lam_weight):
        lam_total = (total - mu_total) // lam_weight
        count += (count_partitions(lam_total)
                  * count_partitions(mu_total, mu_constraint))
    return count


def nilpotent_orbit_count(t: LieType) -> OrbitCount:
    """Number of nilpotent adjoint orbits of the simple algebra of type t."""
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
    if n < 1:
        raise ValueError(f"type A rank must be >= 1, got {n}")
    if n > CLASSIFY_RANK_CAP:
        raise CapacityError(
            f"rank {n} exceeds the classification cap {CLASSIFY_RANK_CAP}")
    parts = enumerate_partitions(n + 1)
    expected = nilpotent_orbit_count(LieType("A", n)).count
    if len(parts) != expected:
        raise RootSystemConsistencyError(
            f"classify A{n}: enumerated {len(parts)} Jordan types, but the"
            f" partition formula counts {expected}")
    return parts


def orbit_dimension_typeA(p: Partition) -> int:
    """Dimension of the GL-conjugation orbit of a nilpotent Jordan type:
    total^2 minus the sum of squared conjugate parts."""
    if not len(p):
        raise ValueError("Jordan type of a nilpotent endomorphism is nonempty")
    k = p.total
    return k * k - sum(q * q for q in conjugate_partition(p))


def _jordan_matrix(p: Partition) -> list[list[int]]:
    k = p.total
    mat = [[0] * k for _ in range(k)]
    offset = 0
    for size in p:
        for r in range(offset, offset + size - 1):
            mat[r][r + 1] = 1
        offset += size
    return mat


def centralizer_dimension_oracle(p: Partition) -> int:
    """Dimension of the space of k x k matrices commuting with the
    nilpotent Jordan matrix of type p, computed as the exact kernel
    dimension of the commutator system [N, Y] = 0."""
    k = p.total
    if k > ORACLE_SIZE_CAP:
        raise CapacityError(
            f"oracle solves a {k * k} x {k * k} system; cap is total <= {ORACLE_SIZE_CAP}")
    if k == 0:
        return 0
    n = _jordan_matrix(p)
    rows = []
    for i in range(k):
        for j in range(k):
            # coefficient of Y[t][s] in (NY - YN)[i][j]
            row = [0] * (k * k)
            for t in range(k):
                if n[i][t]:
                    row[t * k + j] += n[i][t]
                if n[t][j]:
                    row[i * k + t] -= n[t][j]
            rows.append(row)
    return k * k - _rank_exact(rows)


_SUBREGULAR_SUPPORT = ("A_r with r >= 2", "D_l with l >= 4", "B3")


def subregular_partition(t: LieType) -> Partition:
    """Jordan type of the subregular nilpotent orbit, for the cases
    where a partition labels it: (r,1) in A_r, (2l-3,3) in D_l, and
    (5,1,1) in B3."""
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
