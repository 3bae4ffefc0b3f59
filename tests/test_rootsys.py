import hashlib
import re

import pytest

from orbitkit import rootsys
from orbitkit.embedcheck import principal_table
from orbitkit.rootsys import (
    InvalidLieTypeError,
    LieType,
    RootSystemConsistencyError,
    build_root_system,
    group_dimension,
    positive_root_count,
)
from perfbench import oracles

ALL_RANK_LE_8 = (
    [LieType("A", n) for n in range(1, 9)]
    + [LieType("B", n) for n in range(2, 9)]
    + [LieType("C", n) for n in range(3, 9)]
    + [LieType("D", n) for n in range(4, 9)]
    + [LieType("E", n) for n in (6, 7, 8)]
    + [LieType("F", 4), LieType("G", 2)]
)


# sha256 of the simple roots, ordered positive roots, heights and Cartan
# matrix of A1-A30, B2-B30, C3-C30, D4-D30, G2, F4 and E6-E8; a change
# to how the roots are built must leave it unchanged
ROOT_SYSTEMS_SHA256 = "dff3ea9c1f4f63865e447181c9d03da41ae1342a7a08c514472cb2264876065c"


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
        ("AB", 3), ("", 3), (1, 3), (None, 3), ("A", True), ("A", 2.0),
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

    def test_replace_checks_and_canonicalizes(self):
        assert str(LieType("C", 3)._replace(rank=2)) == "B2"
        with pytest.raises(InvalidLieTypeError, match="positive integer, got 0"):
            LieType("A", 3)._replace(rank=0)

    @pytest.mark.parametrize("function", [build_root_system, positive_root_count,
                                          group_dimension], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", ["A3", None, ("A", 3)], ids=repr)
    def test_functions_refuse_values_that_are_not_lie_types(self, function, value):
        # each ended in an AttributeError that did not name the value.  A
        # LieType equals the plain tuple of its fields, so the caches must
        # be typed for ("A", 3) to be refused after LieType("A", 3) is cached
        function(LieType("A", 3))
        with pytest.raises(TypeError, match=re.escape(f"must be a LieType, got {value!r}")):
            function(value)


class TestConstruction:
    @pytest.mark.parametrize("t", ALL_RANK_LE_8, ids=str)
    def test_dimension_formula(self, t):
        dimension = oracles.group_dimension(t.family, t.rank)
        assert 2 * len(build_root_system(t).positive_roots) + t.rank == dimension
        assert group_dimension(t) == dimension

    @pytest.mark.parametrize("t", ALL_RANK_LE_8, ids=str)
    def test_eigenvalues_even_and_regular(self, t):
        rs = build_root_system(t)
        for root in rs.positive_roots:
            # the principal h acts on a root space by twice the root's height
            h = rs.heights[root]
            assert h >= 1
            assert (h == 1) == (root in rs.simple_roots)

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
        assert group_dimension(LieType("B", 2)) == 10

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
        for family, minimum in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
            for rank in range(minimum, 31):
                t = LieType(family, rank)
                assert group_dimension(t) == \
                    2 * len(build_root_system(t).positive_roots) + rank, t

    def test_root_system_digest(self):
        types = ([LieType(f, n) for f, m in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                  for n in range(m, 31)]
                 + [LieType("G", 2), LieType("F", 4)] + [LieType("E", n) for n in (6, 7, 8)])
        digest = hashlib.sha256()
        for t in types:
            rs = build_root_system(t)
            digest.update(repr((str(t), rs.simple_roots, rs.positive_roots,
                                tuple(rs.heights.items()), rs.cartan_matrix)).encode())
        assert digest.hexdigest() == ROOT_SYSTEMS_SHA256

    def test_large_ranks_build_no_roots(self, monkeypatch):
        simple_roots = rootsys._simple_roots

        def no_classical_builds(t):
            if t.family in "ABCD":
                raise AssertionError(f"root vectors built for {t}")
            return simple_roots(t)

        monkeypatch.setattr(rootsys, "_simple_roots", no_classical_builds)
        build_root_system.cache_clear()
        positive_root_count.cache_clear()
        rows = principal_table(200)
        assert max(row.case.g_type.rank for row in rows) == 400
        for family, minimum in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
            for rank in range(minimum, 31):
                positive_root_count(LieType(family, rank))


def textbook_positive_roots(t: LieType) -> set:
    """Positive roots of a classical type from their textbook description:
    e_i - e_j (i < j) in n + 1 coordinates for A_n; e_i - e_j and
    e_i + e_j (i < j), plus e_i (B) or 2e_i (C), for B/C/D_n."""
    n = t.rank

    def e(*pairs):
        v = [0] * (n + 1 if t.family == "A" else n)
        for k, x in pairs:
            v[k] += x
        return tuple(v)

    if t.family == "A":
        return {e((i, 1), (j, -1)) for i in range(n + 1) for j in range(i + 1, n + 1)}
    roots = {e((i, 1), (j, s)) for i in range(n) for j in range(i + 1, n) for s in (1, -1)}
    if t.family in "BC":
        roots |= {e((i, 1 if t.family == "B" else 2)) for i in range(n)}
    return roots


@pytest.mark.parametrize("t", [LieType(f, n) for f, m in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                               for n in range(m, 13)], ids=str)
def test_classical_builds_match_textbook_roots(t):
    rs = build_root_system(t)
    assert len(rs.positive_roots) == len(set(rs.positive_roots))
    assert set(rs.positive_roots) == textbook_positive_roots(t)


class TestSelfChecks:
    """Each check that corrupted simple roots can reach raises before the
    closure runs."""

    @pytest.fixture
    def corrupt(self, monkeypatch):
        def no_closure(cartan, simple):
            raise AssertionError("closure ran on corrupted data")

        def install(roots):
            monkeypatch.setattr(rootsys, "_simple_roots", lambda t: roots)
            build_root_system.cache_clear()

        monkeypatch.setattr(rootsys, "_closure_from_cartan", no_closure)
        yield install
        build_root_system.cache_clear()

    def test_g2_table_mismatch(self, corrupt):
        corrupt(rootsys._G2_SIMPLE[::-1])
        with pytest.raises(RootSystemConsistencyError, match="disagrees with table for G2"):
            build_root_system(LieType("G", 2))

    def test_non_integral_pairing(self, corrupt):
        corrupt(((3, 0), (1, 1)))
        with pytest.raises(RootSystemConsistencyError, match="non-integral Cartan pairing"):
            build_root_system(LieType("A", 2))

    def test_off_diagonal_out_of_range(self, corrupt):
        corrupt(((1, -1, 0), (-2, 2, 0)))
        with pytest.raises(RootSystemConsistencyError, match="entry -4 out of range in A2"):
            build_root_system(LieType("A", 2))

    def test_zero_root(self, corrupt):
        corrupt(((0, 0, 0), (1, -1, 0)))
        with pytest.raises(RootSystemConsistencyError, match="simple root 1 is zero"):
            build_root_system(LieType("A", 2))

    def test_dependent_roots(self, corrupt):
        # Cartan [[2, -2], [-2, 2]] (affine A1) passes the range checks;
        # the reflection closure on it would never end
        corrupt(((1, -1, 0), (-1, 1, 0)))
        with pytest.raises(RootSystemConsistencyError, match="singular Cartan matrix in A2"):
            build_root_system(LieType("A", 2))

    def test_height_one_root_that_is_not_simple(self, monkeypatch):
        # the closure itself is corrupted: coefficients (2, -1) have height 1
        closure = rootsys._closure_from_cartan
        monkeypatch.setattr(rootsys, "_closure_from_cartan",
                            lambda cartan, simple: {**closure(cartan, simple), (2, -1): (3, -3, 0)})
        build_root_system.cache_clear()
        try:
            with pytest.raises(RootSystemConsistencyError, match=re.escape(
                    "height-1 roots must be simple; offender (3, -3, 0) in A2")):
                build_root_system(LieType("A", 2))
        finally:
            build_root_system.cache_clear()


def test_closure_refuses_mixed_sign_coefficients():
    # positive off-diagonal Cartan entries reflect a simple root into
    # alpha_1 - alpha_2, neither positive nor negative
    with pytest.raises(RootSystemConsistencyError,
                       match=re.escape("mixed-sign root coefficients (1, -1)")):
        rootsys._closure_from_cartan(((2, 1), (1, 2)), ((1, 0), (0, 1)))


class TestHeights:
    def test_simple_roots_have_height_one(self):
        rs = build_root_system(LieType("C", 4))
        for alpha in rs.simple_roots:
            assert rs.heights[alpha] == 1

    def test_a2_sum_of_simples(self):
        rs = build_root_system(LieType("A", 2))
        theta = tuple(x + y for x, y in zip(*rs.simple_roots))
        assert rs.heights[theta] == 2

    def test_g2_highest_root(self):
        rs = build_root_system(LieType("G", 2))
        highest = rs.positive_roots[-1]
        assert rs.heights[highest] == 5

    def test_highest_root_heights(self):
        # height of the highest root is the Coxeter number minus 1
        expected = {"A5": 5, "B4": 7, "C4": 7, "D5": 7, "E6": 11, "E7": 17,
                    "E8": 29, "F4": 11, "G2": 5}
        for label, h in expected.items():
            rs = build_root_system(LieType.from_string(label))
            assert max(rs.heights.values()) == h, label

    def test_height_of_positive_root(self):
        rs = build_root_system(LieType("B", 3))
        assert [rs.height(list(v)) for v in rs.simple_roots] == [1, 1, 1]
        assert rs.height(rs.positive_roots[-1]) == 5

    def test_unknown_root_rejected(self):
        rs = build_root_system(LieType("A", 2))
        with pytest.raises(ValueError, match="not a positive root"):
            rs.height((5, 0, -5))
