import pytest

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

    def test_immutable_and_hashable(self):
        p = Partition((2, 2))
        with pytest.raises(AttributeError):
            p.parts = (1,)
        assert len({p, Partition((2, 2))}) == 1

    def test_multiplicity(self):
        assert Partition((3, 3, 1)).multiplicity(3) == 2
        assert Partition((3, 3, 1)).multiplicity(2) == 0


class TestEnumeration:
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
