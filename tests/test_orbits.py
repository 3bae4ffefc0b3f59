import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orbitkit import orbits
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
    enumerate_partitions,
    is_orthogonal_partition,
    is_symplectic_partition,
)
from orbitkit.rootsys import LieType, RootSystemConsistencyError

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


def fraction_rank(matrix):
    """Rank by Gaussian elimination over Fraction; shares no code with
    orbits._rank_exact."""
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
        assert orbits._rank_exact([row[:] for row in matrix]) == rank

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
            assert orbits._rank_exact([row[:] for row in matrix]) == expected, matrix


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

    def test_oracle_matches_conjugate_formula_to_6(self):
        for k in range(1, 7):
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
