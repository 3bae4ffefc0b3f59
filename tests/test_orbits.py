import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from orbitkit import echelon, orbits, partitions
from orbitkit.orbits import (
    CapacityError,
    centralizer_dimension_oracle,
    classify_nilpotent_orbits_typeA,
    nilpotent_orbit_count,
    orbit_dimension_typeA,
    subregular_partition,
)
from orbitkit.partitions import (
    Partition,
    conjugate_partition,
    count_partitions,
    enumerate_partitions,
    is_orthogonal_partition,
    is_symplectic_partition,
)
from orbitkit.rootsys import InvalidLieTypeError, LieType, RootSystemConsistencyError
from perfbench.oracles import PartitionCounts

T = LieType.from_string


def count(label: str) -> int:
    return nilpotent_orbit_count(T(label)).count


class TestCounts:
    def test_type_a_and_b_anchors(self):
        assert count("A3") == 5
        assert count("B2") == 4
        assert count("A4") > count("A3") == 5 > count("B2") == 4

    @pytest.mark.parametrize("label,expected", [
        ("G2", 5), ("F4", 16), ("E6", 21), ("E7", 45), ("E8", 70),
    ])
    def test_exceptional_table(self, label, expected):
        oc = nilpotent_orbit_count(T(label))
        assert oc.count == expected
        assert oc.method == "exceptional-table"

    def test_low_rank_coincidences(self):
        # canonicalization routes C2 through the B formula and D3 through
        # the A formula; the independent formulas agree with them
        assert count("C2") == 4
        assert count("D3") == 5

    def test_small_classical_values(self):
        assert count("B3") == 7
        assert count("C3") == 8
        assert count("D4") == 10
        assert count("A6") == 15

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_pair_count_reads_tables_not_count_calls(self, monkeypatch, family):
        # the pair-of-partitions formula reads both count tables whole,
        # not one count_partitions call per |lambda| (about rank calls)
        calls = []

        def counted(*args):
            calls.append(args)
            return count_partitions(*args)

        monkeypatch.setattr(orbits, "count_partitions", counted)
        monkeypatch.setattr(partitions, "count_partitions", counted)
        nilpotent_orbit_count(LieType(family, 300))
        assert len(calls) <= 2, calls

    def test_method_and_notes(self):
        oc = nilpotent_orbit_count(T("D5"))
        assert oc.method == "partition-formula"
        assert any("zero orbit" in note for note in oc.notes)
        assert any("very even" in note for note in oc.notes)

    def test_rank2_case_inequalities(self):
        assert count("B3") > 5 and count("D4") > 5 and count("A6") > 5
        assert count("E6") == 21 > count("F4") == 16

    def test_parametrized_inequalities_to_50(self):
        for l in range(3, 51):
            assert count(f"A{2*l}") > count(f"B{l}"), l
            assert count(f"A{2*l-1}") > count(f"C{l}"), l
        for l in range(4, 51):
            assert count(f"D{l}") > count(f"B{l-1}"), l

    @pytest.mark.parametrize("family,min_rank", [("A", 1), ("B", 2), ("C", 3), ("D", 4)])
    def test_classical_counts_match_jordan_type_oracle(self, family, min_rank):
        # the oracle counts the Jordan types each classical algebra allows
        # by generating functions, not by the pair-of-partitions formula
        oracle = PartitionCounts()
        for rank in range(min_rank, 301):  # the orbit-queries workload's COUNT_RANK_MAX
            t = LieType(family, rank)
            assert nilpotent_orbit_count(t).count == oracle.orbit_count(family, rank), t


class TestTypeAClassification:
    def test_small_ranks(self):
        assert [tuple(p) for p in classify_nilpotent_orbits_typeA(1)] == [(2,), (1, 1)]
        assert [tuple(p) for p in classify_nilpotent_orbits_typeA(2)] == [
            (3,), (2, 1), (1, 1, 1)]
        assert len(classify_nilpotent_orbits_typeA(3)) == 5

    def test_length_matches_count(self):
        for n in range(1, 12):
            assert len(classify_nilpotent_orbits_typeA(n)) == count(f"A{n}")

    def test_count_mismatch_raises(self, monkeypatch):
        def off_by_one(t):
            oc = nilpotent_orbit_count(t)
            return replace(oc, count=oc.count + 1)

        monkeypatch.setattr(orbits, "nilpotent_orbit_count", off_by_one)
        with pytest.raises(RootSystemConsistencyError, match=r"A3: enumerated 5 .* counts 6"):
            classify_nilpotent_orbits_typeA(3)

    def test_caps(self):
        with pytest.raises(CapacityError):
            classify_nilpotent_orbits_typeA(41)
        with pytest.raises(ValueError):
            classify_nilpotent_orbits_typeA(0)

    @pytest.mark.parametrize("rank", [2.0, True, "3", None], ids=repr)
    def test_non_integer_rank_refused_before_enumerating(self, rank, monkeypatch):
        # 2.0 raised "can't multiply sequence by non-int of type 'float'"
        # from the partition walk, and "3" and None "'<' not supported"
        # from the rank checks
        def forbidden(n):
            raise AssertionError("partitions enumerated")

        monkeypatch.setattr(orbits, "enumerate_partitions", forbidden)
        with pytest.raises(InvalidLieTypeError, match="rank must be a positive integer"):
            classify_nilpotent_orbits_typeA(rank)


def fraction_rank(matrix):
    """Rank by Gaussian elimination over Fraction; shares no code with
    echelon.rank."""
    rows = [[Fraction(a) for a in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def whole_commutator_system(p):
    """The k^2 x k^2 system [N, Y] = 0 for the k x k nilpotent Jordan
    matrix N of type p, built in one piece: the reference the oracle's
    block-pair solves are checked against."""
    k = p.total
    n = [[0] * k for _ in range(k)]
    offset = 0
    for size in p:
        for r in range(offset, offset + size - 1):
            n[r][r + 1] = 1
        offset += size
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
    return rows


def sparse(matrix):
    """The rows of a dense matrix as echelon vectors: column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


class TestRankExact:
    @pytest.mark.parametrize("matrix,rank", [
        ([[2, 4], [1, 2]], 1),
        ([[2, 1], [1, 2]], 2),
        ([[6, 4], [9, 6]], 1),
        ([[4, 6, 2], [6, 9, 3], [2, 3, 5]], 2),
        ([[3, 5], [5, 3], [7, 11]], 2),
        ([[0, 0], [0, 0]], 0),
        ([], 0),
    ], ids=str)
    def test_non_unit_pivots(self, matrix, rank):
        assert echelon.rank(sparse(matrix)) == rank

    def test_random_matrices_match_fraction_elimination(self):
        rng = random.Random(20260)
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            matrix = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                      for _ in range(m)]
            if rng.random() < 0.5 and m > 1:  # force a dependent row
                i, j = rng.sample(range(m), 2)
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                matrix[i] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
            expected = fraction_rank(matrix)
            assert echelon.rank(sparse(matrix)) == expected, matrix


def random_vectors(rng, count, keys):
    """count integer maps over the given keys, with entries in -9..9; some
    vectors are built dependent on earlier ones."""
    vectors = []
    for _ in range(count):
        if len(vectors) > 1 and rng.random() < 0.4:
            (u, v), (a, b) = rng.sample(vectors, 2), (rng.randint(-4, 4), rng.randint(-4, 4))
            vec = {k: a * u.get(k, 0) + b * v.get(k, 0) for k in u.keys() | v.keys()}
        else:
            vec = {k: rng.randint(-9, 9) for k in rng.sample(keys, rng.randint(0, len(keys)))}
        vectors.append({k: x for k, x in vec.items() if x})
    return vectors


class TestEchelon:
    """The package's one eliminator, on maps with monomial (tuple) keys."""

    KEYS = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]

    def dense(self, vectors):
        return [[v.get(k, 0) for k in self.KEYS] for v in vectors]

    def test_random_monomial_maps_match_fraction_elimination(self):
        rng = random.Random(27)
        for _ in range(200):
            vectors = random_vectors(rng, rng.randint(0, 10), self.KEYS)
            expected = fraction_rank(self.dense(vectors))
            assert echelon.rank([dict(v) for v in vectors]) == expected, vectors

    def test_insert_returns_none_exactly_for_dependent_vectors(self):
        rng = random.Random(2027)
        for _ in range(100):
            span, vectors = echelon.Echelon(), []
            for vec in random_vectors(rng, rng.randint(1, 10), self.KEYS):
                before = fraction_rank(self.dense(vectors))
                vectors.append(vec)
                independent = fraction_rank(self.dense(vectors)) == before + 1
                pivot = span.insert(dict(vec))
                assert (pivot is not None) == independent, vectors
                if independent:
                    assert pivot in span.rows and pivot == max(span.rows[pivot])

    def test_each_row_is_its_combination_of_inserted_vectors(self):
        # the augmented matrix [A | I]: vector i is tagged (-1, i), below every key
        rng = random.Random(1968)
        for _ in range(100):
            span = echelon.Echelon()
            vectors = random_vectors(rng, rng.randint(1, 10), self.KEYS)
            for i, vec in enumerate(vectors):
                span.insert({**vec, (-1, i): 1})
            relations = 0
            for pivot, row in span.rows.items():
                total = {}
                for key, c in row.items():
                    if key[0] == -1:
                        for k, x in vectors[key[1]].items():
                            total[k] = total.get(k, 0) + c * x
                untagged = {k: x for k, x in row.items() if k[0] != -1}
                assert {k: x for k, x in total.items() if x} == untagged
                if pivot[0] == -1:
                    relations += 1
                    assert untagged == {}
            assert relations == len(vectors) - fraction_rank(self.dense(vectors))


class TestDimensions:
    def test_examples(self):
        assert orbit_dimension_typeA(Partition((1, 1, 1))) == 0
        assert orbit_dimension_typeA(Partition((3,))) == 6
        assert orbit_dimension_typeA(Partition((2, 1))) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            orbit_dimension_typeA(Partition())

    def test_oracle_examples(self):
        assert centralizer_dimension_oracle(Partition((2, 1))) == 5
        assert centralizer_dimension_oracle(Partition((1, 1))) == 4
        assert centralizer_dimension_oracle(Partition((4,))) == 4

    def test_oracle_matches_conjugate_formula_to_cap(self):
        for k in range(1, orbits.ORACLE_SIZE_CAP + 1):
            for p in enumerate_partitions(k):
                expected = sum(q * q for q in conjugate_partition(p))
                assert centralizer_dimension_oracle(p) == expected, p
                assert orbit_dimension_typeA(p) == k * k - expected

    def test_oracle_spot_checks_7_8(self):
        for parts in [(7,), (4, 3), (3, 2, 2), (5, 1, 1), (2, 2, 2, 2), (6, 2)]:
            p = Partition(parts)
            expected = sum(q * q for q in conjugate_partition(p))
            assert centralizer_dimension_oracle(p) == expected, p

    def test_dimension_rejects_non_integer_parts(self):
        with pytest.raises(TypeError):
            orbit_dimension_typeA(Partition((2.9, 1.9)))

    def test_oracle_equals_whole_commutator_system_to_cap(self):
        for k in range(1, orbits.ORACLE_SIZE_CAP + 1):
            for p in enumerate_partitions(k):
                rows = whole_commutator_system(p)
                assert centralizer_dimension_oracle(p) == k * k - fraction_rank(rows), p

    def test_oracle_solves_one_system_per_pair_of_block_sizes(self, monkeypatch):
        shapes = []
        rank = orbits.rank

        def counted(rows):
            shapes.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(orbits, "rank", counted)
        cap = orbits.ORACLE_SIZE_CAP
        every = [p for k in range(1, cap + 1) for p in enumerate_partitions(k)]
        for p in every:
            orbits._block_pair_kernel.cache_clear()
            shapes.clear()
            centralizer_dimension_oracle(p)
            assert len(shapes) == len(set(p)) ** 2, p
            assert max(shapes) == p[0] ** 2, p
            shapes.clear()
            centralizer_dimension_oracle(p)
            assert shapes == [], p
        # once per process: the whole sweep solves each pair of sizes once.
        # Blocks a and b meet in one Jordan type when a == b or a + b <= cap,
        # so 32 of the cap**2 possible keys occur
        orbits._block_pair_kernel.cache_clear()
        shapes.clear()
        for p in every:
            centralizer_dimension_oracle(p)
        pairs = [(a, b) for a in range(1, cap + 1) for b in range(1, cap + 1)
                 if a == b or a + b <= cap]
        assert len(shapes) == orbits._block_pair_kernel.cache_info().currsize == len(pairs) == 32

    @pytest.mark.parametrize("value", [(2, 1), [2, 1], None])
    def test_refuses_jordan_types_that_are_not_partitions(self, value):
        # (2, 1) ended in AttributeError on `.total`; an unchecked sequence
        # must not reach the row-weighted dimension sum
        for function in (orbit_dimension_typeA, centralizer_dimension_oracle):
            with pytest.raises(TypeError, match=re.escape(f"got {value!r}")):
                function(value)

    def test_oracle_on_empty_partition(self):
        # no Jordan blocks: no systems, kernel dimension 0
        assert centralizer_dimension_oracle(Partition()) == 0

    def test_zero_count_refused(self):
        with pytest.raises(ValueError, match="at least the zero orbit"):
            orbits.OrbitCount(T("A1"), count=0, method="partition-formula")

    def test_oracle_cap(self):
        with pytest.raises(CapacityError):
            centralizer_dimension_oracle(Partition((9,)))

    def test_principal_and_subregular_codimensions(self):
        for n in range(1, 7):
            sl_dim = (n + 1) ** 2 - 1
            principal = orbit_dimension_typeA(Partition((n + 1,)))
            assert sl_dim - principal == n
            if n >= 2:
                subreg = orbit_dimension_typeA(Partition((n, 1)))
                assert sl_dim - subreg == n + 2


class TestSubregular:
    def test_examples(self):
        assert tuple(subregular_partition(T("A6"))) == (6, 1)
        assert tuple(subregular_partition(T("D4"))) == (5, 3)
        assert tuple(subregular_partition(T("B3"))) == (5, 1, 1)

    def test_totals(self):
        assert subregular_partition(T("A6")).total == 7
        assert subregular_partition(T("D5")).total == 10
        assert subregular_partition(T("B3")).total == 7

    @pytest.mark.parametrize("label", ["A1", "B4", "C3", "E6", "F4", "G2"])
    def test_unsupported(self, label):
        with pytest.raises(ValueError, match="supported cases"):
            subregular_partition(T(label))

    def test_a_family_form_obstructions(self):
        for r in range(2, 22):
            p = subregular_partition(T(f"A{r}"))
            if r % 2 == 1:
                assert not is_symplectic_partition(p), r
            else:
                assert not is_orthogonal_partition(p), r

    def test_d_family_fixes_no_line(self):
        for l in range(4, 21):
            p = subregular_partition(T(f"D{l}"))
            assert p.multiplicity(1) == 0, l
