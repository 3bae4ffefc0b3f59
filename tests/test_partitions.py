import copy
import hashlib
import operator
import pickle
import re

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
from perfbench.oracles import PartitionCounts

U = PartitionConstraint.UNRESTRICTED
D = PartitionConstraint.DISTINCT_PARTS
DO = PartitionConstraint.DISTINCT_ODD_PARTS

# p(n) and q(n) (distinct parts) from Euler's pentagonal recurrence,
# independent of the package counting code
COUNTS = PartitionCounts()


def distinct_odd_count(n, _memo={}):
    """Distinct odd parts, DO(x), solved from prod(1 + x^k) = DO(x) * Q(x^2)."""
    if n not in _memo:
        _memo[n] = COUNTS.q(n) - sum(COUNTS.q(j) * distinct_odd_count(n - 2 * j)
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


    @pytest.mark.parametrize("other", [3, (3, 1), [3, 1], "31", None], ids=repr)
    def test_order_against_other_types_is_a_type_error(self, other):
        p = Partition((3, 1))
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(p, other)
            with pytest.raises(TypeError):
                compare(other, p)
        assert p != other and not p == other

    def test_order_against_partitions(self):
        p, q = Partition((3, 1)), Partition((4,))
        assert p < q and p <= q and q > p and q >= p
        assert p <= Partition((3, 1)) and p >= Partition((3, 1))
        assert not (q < p or q <= p or p > q or p >= q)


class TestTrustedConstruction:
    """Enumerated partitions skip the checks in `Partition.__init__`;
    they, and conjugates, must equal the checked ones exactly."""

    @pytest.mark.parametrize("c", list(PartitionConstraint), ids=lambda c: c.value)
    def test_enumerated_equal_checked_to_25(self, c):
        for n in range(26):
            for p in enumerate_partitions(n, c):
                q = Partition(p.parts)
                assert p == q and hash(p) == hash(q)
                assert type(p._packed) is type(q._packed) and p._packed == q._packed

    @pytest.mark.parametrize("parts", [(), (1,), (3, 1), (5, 5, 2, 1), (255,) * 3,
                                       (1,) * 255, (1,) * 256, (1,) * 300, (300, 2)], ids=len)
    def test_conjugate_equals_checked(self, parts):
        p = conjugate_partition(Partition(parts))
        q = Partition(p.parts)
        assert p == q and type(p._packed) is type(q._packed)
        assert conjugate_partition(p) == Partition(parts)

    def test_enumeration_skips_the_checks(self, monkeypatch):
        calls = []
        init = Partition.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Partition, "__init__", counting_init)
        assert len(enumerate_partitions(41)) == 44583
        assert len(enumerate_partitions(41, D)) == count_partitions(41, D)
        assert not calls

    @pytest.mark.parametrize("c", list(PartitionConstraint), ids=lambda c: c.value)
    def test_empty_partition_is_packed_as_the_stream_yields_it(self, c):
        assert Partition()._packed == b""
        assert enumerate_partitions(0, c) == [Partition()]


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

    def test_stream_digest(self):
        """sha256 over every enumerated partition, U to 41 and D, DO to 35,
        one line per partition; pins the order as well as the content."""
        digest = hashlib.sha256()
        for c, top in ((U, 41), (D, 35), (DO, 35)):
            for n in range(top + 1):
                for p in enumerate_partitions(n, c):
                    digest.update(f"{c.value}:{','.join(map(str, p.parts))}\n".encode())
        assert digest.hexdigest() == (
            "85e47dc28210c028ce8ba7d1ac606d433f58b3d26886a05f0fe42465c1b16a16")

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

    @pytest.mark.parametrize("total", [2.5, 2.0, "3", None], ids=repr)
    def test_refuses_non_integer_totals(self, total):
        # 2.5 raised "can't multiply sequence by non-int of type 'float'"
        # from the walk, and "3" an unrelated comparison error
        for function in (enumerate_partitions, count_partitions):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                function(total)

    def test_accepts_integer_like_totals(self):
        assert enumerate_partitions(True) == enumerate_partitions(1)
        assert count_partitions(True) == 1

    @pytest.mark.parametrize("c", list(PartitionConstraint), ids=lambda c: c.value)
    def test_refuses_totals_past_255(self, c):
        # refused up front, naming the p(256) partitions the walk would cover
        with pytest.raises(ValueError, match=f"the {count_partitions(256)} partitions of 256:"):
            enumerate_partitions(256, c)


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
            assert count_partitions(n, U) == COUNTS.p(n), n

    def test_large_totals_do_not_overflow(self):
        # Python ints are unbounded; pin a classical value as a regression
        assert count_partitions(200, U) == 3972999029388

    def test_negative_total(self):
        with pytest.raises(ValueError):
            count_partitions(-3)


class TestSharedTables:
    # oracle values for every total up to 300, computed in increasing n
    EXPECTED = {c: [oracle(n) for n in range(301)] for c, oracle in
                ((U, COUNTS.p), (D, COUNTS.q), (DO, distinct_odd_count))}

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

    @pytest.mark.parametrize("constraint", ["unrestricted", None], ids=repr)
    def test_refuses_constraints_that_are_not_members(self, monkeypatch, constraint):
        # count_partitions(10, "unrestricted") read 10, the distinct-part count,
        # and left the string as a key of _TABLES
        monkeypatch.setattr(partitions, "_TABLES", {})
        for function in (enumerate_partitions, count_partitions):
            for n in (0, 10):
                with pytest.raises(TypeError, match=f"got {constraint!r}"):
                    function(n, constraint)
        count_partitions(10, U)
        assert list(partitions._TABLES) == [U]


@pytest.mark.parametrize("function", [conjugate_partition, is_symplectic_partition,
                                      is_orthogonal_partition], ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [(2, 1), [2, 1], None], ids=repr)
def test_refuses_jordan_types_that_are_not_partitions(function, value):
    # the predicates ended in AttributeError on .parts, and conjugation
    # returned Partition(2, 1) for (2, 1) and [2, 1]
    with pytest.raises(TypeError, match=re.escape(f"must be a Partition, got {value!r}")):
        function(value)


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
