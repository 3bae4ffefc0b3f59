"""Integer partitions: enumeration, counting from one shared table per
constraint (read only through `_counts`), and the multiplicity predicates
used to classify nilpotent orbits in the classical matrix algebras.

Enumeration walks leading parts: a partition of n is its largest part j
followed by a partition of n - j with parts <= j.  Parts above 4 are
walked one at a time, and the run of parts <= 4 ending each partition
comes from tables built once per call; `map` makes each partition with
one bytes concatenation and stores it in its instance, with no Python
loop per item.  Packing parts in bytes limits enumeration to n <= 255.
The order is lexicographically decreasing, and a constrained enumeration
filters that one stream, so it costs O(p(n)) whatever the constraint.

A `Partition` is made two ways.  `Partition(parts)` checks every part
and packs them as bytes unless a part is 256 or more, the empty
partition included.  Enumeration is the one unchecked path: the walk
emits weakly decreasing positive parts, already packed as bytes, and
stores them in bulk.  The functions here that take a `Partition` refuse
anything else with `_check_partition`, which `orbits` calls as well.

All values are immutable and all functions are pure.
"""

import operator
from collections import Counter
from enum import Enum

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


# bound once: a full enumeration builds tens of thousands of partitions
_new = object.__new__


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition () is the unique partition of 0.  Instances are
    immutable, hashable, and ordered lexicographically on their parts.
    Parts are stored as bytes unless one is 256 or more, which halves
    the memory of a full enumeration; `parts` is always a tuple.
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
        object.__setattr__(self, "_packed", bytes(parts) if not parts or parts[0] < 256 else parts)

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
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts < other.parts

    def __le__(self, other: "Partition"):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts <= other.parts

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _admits(p: int, constraint: PartitionConstraint) -> bool:
    if constraint is PartitionConstraint.DISTINCT_ODD_PARTS:
        return p % 2 == 1
    return True


_SMALL = 4  # parts up to this size come from the shared tables; 3 and 5 measured slower


def _packed_partitions(n: int) -> list[bytes]:
    """Every partition of 0 <= n <= 255 packed as bytes, in
    lexicographically decreasing order."""
    small = [[b""]] + [[]] * n  # small[m]: partitions of m with parts <= k, here k = 0
    for k in range(1, _SMALL + 1):
        head = bytes((k,))
        shorter, small = small, small[:k]
        for m in range(k, n + 1):  # largest part k first, then the parts < k
            small.append([*map(head.__add__, small[m - k]), *shorter[m]])
    packed: list[bytes] = []

    def walk(prefix: bytes, m: int, k: int) -> None:
        # prefix followed by every partition of m with parts <= k
        for j in range(min(k, m), _SMALL, -1):
            walk(prefix + bytes((j,)), m - j, j)
        packed.extend(map(prefix.__add__, small[m]))

    walk(b"", n, n)
    return packed


def enumerate_partitions(n: int,
                         constraint: PartitionConstraint = PartitionConstraint.UNRESTRICTED,
                         ) -> list[Partition]:
    """All partitions of n satisfying the constraint, each exactly once,
    in lexicographically decreasing order.

    n = 0 yields the single empty partition under every constraint, and
    n above 255 is refused up front (p(256) is about 3.7e14).
    """
    n = operator.index(n)  # refuses floats and strings, as parts are
    if not isinstance(constraint, PartitionConstraint):
        raise TypeError(f"constraint must be a PartitionConstraint, got {constraint!r}")
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    if n > 255:
        raise ValueError(f"cannot enumerate the {count_partitions(n)} partitions of {n}: "
                         "enumeration stops at n = 255")
    stream = _packed_partitions(n)
    if constraint is not PartitionConstraint.UNRESTRICTED:
        stream = [p for p in stream if all(map(operator.gt, p, p[1:]))
                  and all(_admits(q, constraint) for q in p)]
    partitions = [_new(Partition) for _ in stream]
    any(map(Partition._packed.__set__, partitions, stream))  # None each time: runs to the end
    return partitions


# One count table per constraint: _TABLES[c][n] is the number of
# partitions of n under c, for every n up to the table's size.
_TABLES: dict[PartitionConstraint, list[int]] = {}


def _counts(n: int, constraint: PartitionConstraint) -> list[int]:
    """The constraint's shared count table, rebuilt to cover n (see
    `count_partitions`); every read of `_TABLES` goes through here."""
    table = _TABLES.get(constraint, [1])
    if n < len(table):
        return table
    # Classic "parts bounded by k" table, one pass per admissible part.
    # Unrestricted parts may repeat; distinct variants use each part at
    # most once (0/1 knapsack, descending inner loop).
    size = max(n, 2 * (len(table) - 1))
    table = _TABLES[constraint] = [1] + [0] * size
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
    n = operator.index(n)
    if not isinstance(constraint, PartitionConstraint):
        raise TypeError(f"constraint must be a PartitionConstraint, got {constraint!r}")
    if n < 0:
        raise ValueError(f"cannot partition a negative total: {n}")
    return _counts(n, constraint)[n]


def _check_partition(p) -> None:
    if not isinstance(p, Partition):
        raise TypeError(f"Jordan type must be a Partition, got {p!r}")


def conjugate_partition(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution preserving the total."""
    _check_partition(p)
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
    _check_partition(p)
    return all(m % 2 == 0 for part, m in Counter(p.parts).items() if part % 2 == 1)


def is_orthogonal_partition(p: Partition) -> bool:
    """True iff every even part occurs with even multiplicity.

    Jordan types of nilpotent elements inside an orthogonal algebra have
    this property.
    """
    _check_partition(p)
    return all(m % 2 == 0 for part, m in Counter(p.parts).items() if part % 2 == 0)
