import pytest

from orbitkit.rootsys import (
    InvalidLieTypeError,
    LieType,
    build_root_system,
    group_dimension,
    positive_root_count,
    principal_h_eigenvalue,
    regular_orbit_dimension,
)

ALL_RANK_LE_8 = (
    [LieType("A", n) for n in range(1, 9)]
    + [LieType("B", n) for n in range(2, 9)]
    + [LieType("C", n) for n in range(3, 9)]
    + [LieType("D", n) for n in range(4, 9)]
    + [LieType("E", n) for n in (6, 7, 8)]
    + [LieType("F", 4), LieType("G", 2)]
)


def closed_form_dimension(t: LieType) -> int:
    n = t.rank
    if t.family == "A":
        return (n + 1) ** 2 - 1
    if t.family in "BC":
        return 2 * n * n + n
    if t.family == "D":
        return 2 * n * n - n
    return {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}[str(t)]


class TestLieType:
    def test_parse(self):
        assert LieType.from_string("B3") == LieType("B", 3)
        assert LieType.from_string("E6") == LieType("E", 6)

    @pytest.mark.parametrize("bad", ["Z9", "b3", "B 3", "B", "3B", "Bx", "", "A03"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidLieTypeError):
            LieType.from_string(bad)

    @pytest.mark.parametrize("family,rank", [
        ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
        ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 2),
    ])
    def test_invalid_combinations(self, family, rank):
        with pytest.raises(InvalidLieTypeError):
            LieType(family, rank)

    def test_error_names_constraint(self):
        with pytest.raises(InvalidLieTypeError, match="rank >= 2"):
            LieType("B", 1)
        with pytest.raises(InvalidLieTypeError, match="rank 6,7,8"):
            LieType("E", 5)

    def test_canonical_aliases(self):
        assert LieType("C", 2) == LieType("B", 2)
        assert LieType("D", 3) == LieType("A", 3)
        assert str(LieType("C", 2)) == "B2"


class TestConstruction:
    @pytest.mark.parametrize("t", ALL_RANK_LE_8, ids=str)
    def test_dimension_formula(self, t):
        rs = build_root_system(t)
        assert 2 * len(rs.positive_roots) + t.rank == closed_form_dimension(t)
        assert group_dimension(t) == closed_form_dimension(t)

    @pytest.mark.parametrize("t", ALL_RANK_LE_8, ids=str)
    def test_eigenvalues_even_and_regular(self, t):
        rs = build_root_system(t)
        for root in rs.positive_roots:
            e = principal_h_eigenvalue(rs, root)
            assert e % 2 == 0 and e >= 2
            assert (e == 2) == (root in rs.simple_roots)

    @pytest.mark.parametrize("t", ALL_RANK_LE_8, ids=str)
    def test_cartan_matrix_shape(self, t):
        cm = build_root_system(t).cartan_matrix
        assert all(cm[i][i] == 2 for i in range(t.rank))
        assert all(cm[i][j] in (0, -1, -2, -3)
                   for i in range(t.rank) for j in range(t.rank) if i != j)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cartan_A_is_tridiagonal(self, n):
        cm = build_root_system(LieType("A", n)).cartan_matrix
        for i in range(n):
            for j in range(n):
                expected = 2 if i == j else -1 if abs(i - j) == 1 else 0
                assert cm[i][j] == expected

    def test_examples(self):
        assert positive_root_count(LieType("A", 1)) == 1
        assert group_dimension(LieType("A", 1)) == 3
        assert positive_root_count(LieType("G", 2)) == 6
        assert group_dimension(LieType("G", 2)) == 14
        assert positive_root_count(LieType("D", 4)) == 12
        assert group_dimension(LieType("D", 4)) == 28

    def test_embedding_table_gaps(self):
        assert group_dimension(LieType("B", 3)) - group_dimension(LieType("G", 2)) == 7
        assert group_dimension(LieType("E", 6)) - group_dimension(LieType("F", 4)) == 26
        assert group_dimension(LieType("D", 4)) - group_dimension(LieType("G", 2)) == 14

    def test_canonicalized_types_share_data(self):
        assert build_root_system(LieType("C", 2)) is build_root_system(LieType("B", 2))
        assert build_root_system(LieType("D", 3)) is build_root_system(LieType("A", 3))

    def test_deterministic_order(self):
        rs = build_root_system(LieType("F", 4))
        ordered = sorted(rs.positive_roots, key=lambda v: (rs.heights[v], v))
        assert list(rs.positive_roots) == ordered

    def test_counting_path_matches_full_build(self):
        for label in ("A15", "B13", "C13", "D13"):
            t = LieType.from_string(label)
            assert group_dimension(t) == build_root_system(t).dimension


class TestHeights:
    def test_simple_roots_have_height_one(self):
        rs = build_root_system(LieType("C", 4))
        for alpha in rs.simple_roots:
            assert rs.heights[alpha] == 1

    def test_a2_sum_of_simples(self):
        rs = build_root_system(LieType("A", 2))
        theta = tuple(x + y for x, y in zip(*rs.simple_roots))
        assert rs.heights[theta] == 2
        assert principal_h_eigenvalue(rs, theta) == 4

    def test_g2_highest_root(self):
        rs = build_root_system(LieType("G", 2))
        highest = rs.positive_roots[-1]
        assert rs.heights[highest] == 5
        assert principal_h_eigenvalue(rs, highest) == 10

    def test_highest_root_heights(self):
        # height of the highest root is the Coxeter number minus 1
        expected = {"A5": 5, "B4": 7, "C4": 7, "D5": 7, "E6": 11, "E7": 17,
                    "E8": 29, "F4": 11, "G2": 5}
        for label, h in expected.items():
            rs = build_root_system(LieType.from_string(label))
            assert max(rs.heights.values()) == h, label

    def test_unknown_root_rejected(self):
        rs = build_root_system(LieType("A", 2))
        with pytest.raises(ValueError, match="not a positive root"):
            principal_h_eigenvalue(rs, (5, 0, -5))


class TestRegularOrbit:
    def test_examples(self):
        assert regular_orbit_dimension(LieType("A", 1)) == 2
        assert regular_orbit_dimension(LieType("A", 3)) == 12
        assert regular_orbit_dimension(LieType("E", 6)) == 72
