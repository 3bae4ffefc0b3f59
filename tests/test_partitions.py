import copy
import pickle

import pytest

from orbitkit import partitions
from orbitkit.partitions import (
    Partition,
    PartitionConstraint,
    conjugate_partition,
    count_partitions,
    enumerate_partitions,
    is_orthogonal_partition,
    is_symplectic_partition,
)

U = PartitionConstraint.UNRESTRICTED
D = PartitionConstraint.DISTINCT_PARTS
DO = PartitionConstraint.DISTINCT_ODD_PARTS


def pentagonal_count(n, _memo={0: 1}):
    """Euler's pentagonal-number recurrence; independent of the package
    counting code."""
    if n in _memo:
        return _memo[n]
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                total += sign * pentagonal_count(n - g)
        k += 1
    _memo[n] = total
    return total


def pentagonal_terms(limit):
    """(sign, g) for the generalized pentagonal numbers g <= limit, so
    that prod(1 - x^k) is the sum of sign * x^g."""
    terms, k = [(1, 0)], 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 else 1
        terms += [(sign, g) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                  if g <= limit]
        k += 1
    return terms


def distinct_count(n):
    """Distinct parts: prod(1 + x^k) = P(x) * E(x^2), with E the
    pentagonal series; independent of the package counting code."""
    return sum(sign * pentagonal_count(n - 2 * g) for sign, g in pentagonal_terms(n // 2))


def distinct_odd_count(n, _memo={}):
    """Distinct odd parts, DO(x), solved from prod(1 + x^k) = DO(x) * Q(x^2)."""
    if n not in _memo:
        _memo[n] = distinct_count(n) - sum(distinct_count(j) * distinct_odd_count(n - 2 * j)
                                           for j in range(1, n // 2 + 1))
    return _memo[n]


class TestPartitionType:
    def test_valid(self):
        p = Partition((3, 1))
        assert p.total == 4 and len(p) == 2 and list(p) == [3, 1]

    def test_empty_is_partition_of_zero(self):
        assert Partition().total == 0
        assert enumerate_partitions(0) == [Partition()]

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3", True), (2.9, 1.9), (3.0,)],
                             ids=str)
    def test_rejects_non_integer_parts(self, parts):
        # int() would truncate these to a valid partition
        with pytest.raises(TypeError):
            Partition(parts)

    def test_accepts_integer_like_parts(self):
        assert Partition((True,)) == Partition((1,))

    def test_immutable_and_hashable(self):
        p = Partition((2, 2))
        with pytest.raises(AttributeError):
            p.parts = (1,)
        assert len({p, Partition((2, 2))}) == 1

    def test_multiplicity(self):
        assert Partition((3, 3, 1)).multiplicity(3) == 2
        assert Partition((3, 3, 1)).multiplicity(2) == 0

    @pytest.mark.parametrize("parts", [(255, 1), (256, 1), (300, 300, 2), (2**70, 5)], ids=str)
    def test_parts_on_both_sides_of_256(self, parts):
        # parts below 256 are stored packed, larger ones as a tuple
        p = Partition(parts)
        assert p.parts == parts and type(p.parts) is tuple
        assert list(p) == list(parts) and len(p) == len(parts) and p[0] == parts[0]
        assert p[1:] == parts[1:] and p.total == sum(parts)
        assert hash(p) == hash(parts) and p == Partition(list(parts))
        assert p.multiplicity(parts[0]) == parts.count(parts[0])
        assert p.multiplicity(-1) == 0 and p.multiplicity(1000) == parts.count(1000)
        assert repr(p) == f"Partition{parts!r}"

    @pytest.mark.parametrize("parts", [(), (3, 1), (255, 1), (256, 1), (2**70, 5)], ids=str)
    def test_copy_and_pickle(self, parts):
        # copies are rebuilt by the constructor, so the guard on
        # assignment above does not stop them
        p = Partition(parts)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and q.parts == parts and hash(q) == hash(p)

    def test_order_across_256(self):
        assert Partition((255, 45)) < Partition((256,)) < Partition((256, 1))
        assert sorted([Partition((300,)), Partition((2, 1)), Partition((255, 45))]) == [
            Partition((2, 1)), Partition((255, 45)), Partition((300,))]


def reference_partitions(n, max_part, constraint, prefix=()):
    """Recursive generator, largest first part first; shares no code
    with the package enumeration."""
    if n == 0:
        yield prefix
        return
    distinct = constraint is not U
    for p in range(min(n, max_part), 0, -1):
        if constraint is DO and p % 2 == 0:
            continue
        yield from reference_partitions(n - p, p - 1 if distinct else p, constraint,
                                        prefix + (p,))


class TestEnumeration:
    @pytest.mark.parametrize("c", [U, D, DO], ids=lambda c: c.value)
    def test_matches_reference_in_order_to_30(self, c):
        for n in range(31):
            got = [p.parts for p in enumerate_partitions(n, c)]
            assert got == list(reference_partitions(n, n, c)), n

    def test_partitions_of_41(self):
        ps = enumerate_partitions(41)
        assert len(ps) == 44583
        assert ps[0] == Partition((41,))
        assert ps[1] == Partition((40, 1))
        assert ps[-2] == Partition((2,) + (1,) * 39)
        assert ps[-1] == Partition((1,) * 41)

    def test_partitions_of_four(self):
        got = [tuple(p) for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_distinct_odd_of_seven(self):
        assert [tuple(p) for p in enumerate_partitions(7, DO)] == [(7,)]

    def test_distinct_odd_of_eight(self):
        assert [tuple(p) for p in enumerate_partitions(8, DO)] == [(7, 1), (5, 3)]

    def test_order_is_lexicographically_decreasing(self):
        for n in range(10):
            for c in (U, D, DO):
                ps = [tuple(p) for p in enumerate_partitions(n, c)]
                assert ps == sorted(ps, reverse=True)

    def test_deterministic(self):
        assert enumerate_partitions(9, D) == enumerate_partitions(9, D)

    def test_constraint_chain(self):
        for n in range(16):
            unrestricted = set(enumerate_partitions(n, U))
            distinct = set(enumerate_partitions(n, D))
            distinct_odd = set(enumerate_partitions(n, DO))
            assert distinct_odd <= distinct <= unrestricted

    def test_distinct_odd_really_is(self):
        for n in range(20):
            for p in enumerate_partitions(n, DO):
                assert all(x % 2 == 1 for x in p)
                assert len(set(p.parts)) == len(p)

    def test_negative_total(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestCounting:
    def test_examples(self):
        assert count_partitions(5, U) == 7
        assert count_partitions(1, D) == 1
        assert count_partitions(8, DO) == 2

    def test_matches_enumeration(self):
        for n in range(33):
            for c in (U, D, DO):
                assert count_partitions(n, c) == len(enumerate_partitions(n, c))

    def test_pentagonal_oracle_to_40(self):
        for n in range(41):
            assert count_partitions(n, U) == pentagonal_count(n), n

    def test_large_totals_do_not_overflow(self):
        # Python ints are unbounded; pin a classical value as a regression
        assert count_partitions(200, U) == 3972999029388

    def test_negative_total(self):
        with pytest.raises(ValueError):
            count_partitions(-3)


class TestSharedTables:
    # oracle values for every total up to 300, computed in increasing n
    EXPECTED = {c: [oracle(n) for n in range(301)] for c, oracle in
                ((U, pentagonal_count), (D, distinct_count), (DO, distinct_odd_count))}

    def test_oracles_pinned(self):
        assert self.EXPECTED[U][200] == 3972999029388
        assert self.EXPECTED[D][:12] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12]
        assert self.EXPECTED[DO][:12] == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2]

    @pytest.mark.parametrize("order", [(300, 5), (5, 300), (200, 300)], ids=str)
    def test_counts_do_not_depend_on_growth_order(self, monkeypatch, order):
        for c, expected in self.EXPECTED.items():
            monkeypatch.setattr(partitions, "_TABLES", {})
            for n in order:
                assert count_partitions(n, c) == expected[n], (c, n)
            assert [count_partitions(n, c) for n in range(301)] == expected, c

    def test_table_grows_by_doubling(self, monkeypatch):
        monkeypatch.setattr(partitions, "_TABLES", {})
        count_partitions(200, DO)
        count_partitions(201, DO)
        assert len(partitions._TABLES[DO]) == 401
        count_partitions(1000, DO)
        assert len(partitions._TABLES[DO]) == 1001


class TestConjugation:
    def test_examples(self):
        assert tuple(conjugate_partition(Partition((3, 1)))) == (2, 1, 1)
        assert conjugate_partition(Partition()) == Partition()
        assert tuple(conjugate_partition(Partition((2, 2)))) == (2, 2)

    def test_involution_and_total_to_20(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                q = conjugate_partition(p)
                assert q.total == n
                assert conjugate_partition(q) == p


class TestFormPredicates:
    @pytest.mark.parametrize("parts,expected", [
        ((3, 1), False),      # odd parts 3 and 1 once each
        ((2, 2), True),
        ((3, 3, 1, 1), True),
        ((), True),
        ((4, 4, 2), True),
        ((5, 4, 4, 5), None),  # invalid ordering, sanity: constructor rejects
    ])
    def test_symplectic(self, parts, expected):
        if expected is None:
            with pytest.raises(ValueError):
                Partition(parts)
            return
        assert is_symplectic_partition(Partition(parts)) is expected

    @pytest.mark.parametrize("parts,expected", [
        ((4, 1), False),
        ((5, 3), True),
        ((), True),
        ((2, 2), True),
        ((6, 2, 2), False),
    ])
    def test_orthogonal(self, parts, expected):
        assert is_orthogonal_partition(Partition(parts)) is expected
