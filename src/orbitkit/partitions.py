"""Integer partitions: enumeration, constrained counting, and the
multiplicity predicates used to classify nilpotent orbits in the
classical matrix algebras.

All values are immutable and all functions are pure.
"""

from collections import Counter
from enum import Enum
from functools import lru_cache
from typing import Iterator

__all__ = [
    "Partition",
    "PartitionConstraint",
    "enumerate_partitions",
    "count_partitions",
    "conjugate_partition",
    "is_symplectic_partition",
    "is_orthogonal_partition",
]

class PartitionConstraint(Enum):
    """Admissible part constraints for enumeration and counting."""

    UNRESTRICTED = "unrestricted"
    DISTINCT_PARTS = "distinct-parts"
    DISTINCT_ODD_PARTS = "distinct-odd-parts"


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition () is the unique partition of 0.  Instances are
    immutable, hashable, and ordered lexicographically on their parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other: "Partition"):
        return self.parts < other.parts

    def __le__(self, other: "Partition"):
        return self.parts <= other.parts

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _admits(p: int, constraint: PartitionConstraint) -> bool:
    if constraint is PartitionConstraint.DISTINCT_ODD_PARTS:
        return p % 2 == 1
    return True


def _gen(n: int, max_part: int, constraint: PartitionConstraint,
         prefix: list[int]) -> Iterator[Partition]:
    if n == 0:
        yield Partition(prefix)
        return
    distinct = constraint is not PartitionConstraint.UNRESTRICTED
    for p in range(min(n, max_part), 0, -1):
        if not _admits(p, constraint):
            continue
        prefix.append(p)
        yield from _gen(n - p, p - 1 if distinct else p, constraint, prefix)
        prefix.pop()


def enumerate_partitions(n: int,
                         constraint: PartitionConstraint = PartitionConstraint.UNRESTRICTED,
                         ) -> list[Partition]:
    """All partitions of n satisfying the constraint, each exactly once,
    in lexicographically decreasing order.

    n = 0 yields the single empty partition under every constraint.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    return list(_gen(n, n, constraint, []))


@lru_cache(maxsize=None)
def _count_by_table(n: int, constraint: PartitionConstraint) -> int:
    # Classic "parts bounded by k" table, one pass per admissible part.
    # Unrestricted parts may repeat; distinct variants use each part at
    # most once (0/1 knapsack, descending inner loop).
    table = [1] + [0] * n
    repeatable = constraint is PartitionConstraint.UNRESTRICTED
    for part in range(1, n + 1):
        if not _admits(part, constraint):
            continue
        if repeatable:
            for total in range(part, n + 1):
                table[total] += table[total - part]
        else:
            for total in range(n, part - 1, -1):
                table[total] += table[total - part]
    return table[n]


def count_partitions(n: int,
                     constraint: PartitionConstraint = PartitionConstraint.UNRESTRICTED,
                     ) -> int:
    """Number of partitions of n satisfying the constraint.

    Counted by a DP table; Python integers keep every count exact at
    any size.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    return _count_by_table(n, constraint)


def conjugate_partition(p: Partition) -> Partition:
    """Transpose partition; an involution preserving the total."""
    return p.conjugate()


def is_symplectic_partition(p: Partition) -> bool:
    """True iff every odd part occurs with even multiplicity.

    Jordan types of nilpotent elements inside a symplectic algebra have
    this property.
    """
    return all(m % 2 == 0 for part, m in Counter(p.parts).items() if part % 2 == 1)


def is_orthogonal_partition(p: Partition) -> bool:
    """True iff every even part occurs with even multiplicity.

    Jordan types of nilpotent elements inside an orthogonal algebra have
    this property.
    """
    return all(m % 2 == 0 for part, m in Counter(p.parts).items() if part % 2 == 0)
