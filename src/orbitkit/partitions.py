"""Integer partitions: enumeration, constrained counting, and the
multiplicity predicates used to classify nilpotent orbits in the
classical matrix algebras.

Enumeration is Zoghbi and Stojmenovic's iterative ZS1 ("Fast algorithms
for generating integer partitions", Int. J. Comput. Math. 70, 1998),
which yields the partitions of n in lexicographically decreasing order.
A constrained enumeration filters that one stream, so it costs O(p(n))
whatever the constraint.

All values are immutable and all functions are pure.
"""

import operator
from collections import Counter
from enum import Enum
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
    Parts below 256 are stored as bytes, which halves the memory of a
    full enumeration; `parts` is always a tuple.
    """

    __slots__ = ("_packed",)

    def __init__(self, parts=()):
        parts = tuple(map(operator.index, parts))  # refuses floats and strings
        # one pass when valid; the loop names the first bad part
        if parts and not (parts[-1] >= 1 and all(map(operator.ge, parts, parts[1:]))):
            for i, p in enumerate(parts):
                if p < 1:
                    raise ValueError(f"parts must be positive, got {p}")
                if i > 0 and parts[i - 1] < p:
                    raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "_packed",
                           bytes(parts) if parts and parts[0] < 256 else parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through __setattr__
        return (Partition, (self.parts,))

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self._packed)

    @property
    def total(self) -> int:
        return sum(self._packed)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return iter(self._packed)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self._packed == other._packed

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


def _zs1(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n >= 1 as a tuple of parts, in lexicographically
    decreasing order (ZS1).  x[:m] is the current partition, every part
    after x[h] is 1, and x[m:] holds only 1s."""
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            # ..., 2, 1, ..., 1 -> ..., 1, 1, ..., 1, 1
            x[h] = 1
            m += 1
            h -= 1
        else:
            # lower x[h] by one and refill the tail with parts of size r
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int,
                         constraint: PartitionConstraint = PartitionConstraint.UNRESTRICTED,
                         ) -> list[Partition]:
    """All partitions of n satisfying the constraint, each exactly once,
    in lexicographically decreasing order.

    n = 0 yields the single empty partition under every constraint.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    if n == 0:
        return [Partition()]
    stream = _zs1(n)
    if constraint is not PartitionConstraint.UNRESTRICTED:
        stream = (p for p in stream if all(map(operator.gt, p, p[1:]))
                  and all(_admits(q, constraint) for q in p))
    return list(map(Partition, stream))


# One count table per constraint: _TABLES[c][n] is the number of
# partitions of n under c, for every n up to the table's size.
_TABLES: dict[PartitionConstraint, list[int]] = {}


def _count_table(size: int, constraint: PartitionConstraint) -> list[int]:
    # Classic "parts bounded by k" table, one pass per admissible part.
    # Unrestricted parts may repeat; distinct variants use each part at
    # most once (0/1 knapsack, descending inner loop).
    table = [1] + [0] * size
    repeatable = constraint is PartitionConstraint.UNRESTRICTED
    for part in range(1, size + 1):
        if not _admits(part, constraint):
            continue
        totals = range(part, size + 1) if repeatable else range(size, part - 1, -1)
        for total in totals:
            table[total] += table[total - part]
    return table


def count_partitions(n: int,
                     constraint: PartitionConstraint = PartitionConstraint.UNRESTRICTED,
                     ) -> int:
    """Number of partitions of n satisfying the constraint.

    Read from the constraint's shared DP table, which is rebuilt at
    max(n, twice its size) when n is past its end, so a sweep over
    totals up to N costs O(N^2) in all; Python integers keep every
    count exact at any size.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    table = _TABLES.get(constraint, [1])
    if n >= len(table):
        table = _TABLES[constraint] = _count_table(max(n, 2 * (len(table) - 1)), constraint)
    return table[n]


def conjugate_partition(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution preserving the total."""
    cols = [0] * max(p, default=0)
    for part in p:
        for i in range(part):
            cols[i] += 1
    return Partition(cols)


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
