import copy

import pytest

from orbitkit import embedcheck
from orbitkit.embedcheck import (
    SUPPORTED_CASES,
    Criterion,
    InconsistencyError,
    UnsupportedCaseError,
    Witness,
    dimension_gap_check,
    dimension_gap_exceptions,
    embedding_verdict,
    orbit_count_criterion,
    principal_table,
    rank2_cases_report,
    subregular_membership_check,
)
from orbitkit.rootsys import LieType, group_dimension

T = LieType.from_string


class TestOrbitCountCriterion:
    def test_a3_over_b2(self):
        v = orbit_count_criterion(T("A3"), T("B2"))
        assert v.holds and v.witness is Witness.PRINCIPAL
        assert v.numbers == {"orbit_count_g": 5, "orbit_count_r": 4}

    def test_e6_over_f4(self):
        v = orbit_count_criterion(T("E6"), T("F4"))
        assert v.holds
        assert (v.numbers["orbit_count_g"], v.numbers["orbit_count_r"]) == (21, 16)

    def test_identical_types_fail_gracefully(self):
        v = orbit_count_criterion(T("A1"), T("A1"))
        assert not v.holds and v.witness is Witness.NONE
        assert v.numbers["orbit_count_g"] == v.numbers["orbit_count_r"]


class TestRank2Report:
    def test_structure_and_holds(self):
        report = rank2_cases_report(50)
        assert all(v.holds for v in report)
        by_case = {}
        for v in report:
            by_case.setdefault(v.numbers["case"], []).append(v)
        assert len(by_case[1]) == 2
        assert len(by_case[2]) == 3
        assert len(by_case[3]) == 48   # l = 3..50
        assert len(by_case[4]) == 48
        assert len(by_case[5]) == 47   # l = 4..50
        assert len(by_case[6]) == 1

    def test_named_instances(self):
        report = {str(v.case): v for v in rank2_cases_report(10)}
        assert report["B3 > G2"].numbers["orbit_count_g"] == 7
        assert report["A5 > C3"].numbers == {
            "orbit_count_g": 11, "orbit_count_r": 8, "case": 4, "l": 3}
        assert report["D4 > B3"].numbers["orbit_count_g"] == 10

    def test_deterministic(self):
        assert rank2_cases_report(12) == rank2_cases_report(12)

    def test_monotone_once_established(self):
        # spot-check the asserted monotonicity: after holding at the
        # first parameter the inequality keeps holding up the family
        report = rank2_cases_report(50)
        for index in (3, 4, 5):
            margins = [v.numbers["orbit_count_g"] - v.numbers["orbit_count_r"]
                       for v in report if v.numbers.get("case") == index]
            assert all(m > 0 for m in margins)
            assert margins == sorted(margins)

    def test_lmax_validation(self):
        with pytest.raises(ValueError):
            rank2_cases_report(3)


class TestPrincipalTable:
    def test_fixed_rows_match(self):
        rows = principal_table(4)
        fixed = [(str(r.case.g_type), str(r.case.r_type), r.rank_plus_3, r.dim_gap)
                 for r in rows[:4]]
        assert fixed == [("B3", "G2", 6, 7), ("D4", "G2", 7, 14),
                         ("A6", "G2", 9, 34), ("E6", "F4", 9, 26)]

    def test_parametrized_instances(self):
        rows = {(str(r.case.g_type), str(r.case.r_type)): r for r in principal_table(6)}
        assert (rows[("A6", "B3")].rank_plus_3, rows[("A6", "B3")].dim_gap) == (9, 27)
        assert (rows[("D4", "B3")].rank_plus_3, rows[("D4", "B3")].dim_gap) == (7, 7)
        assert (rows[("A5", "C3")].rank_plus_3, rows[("A5", "C3")].dim_gap) == (8, 14)

    def test_closed_forms_cross_checked_to_50(self):
        # construction raises InconsistencyError on any closed-form vs
        # root-system mismatch, so building the table is itself the check
        rows = principal_table(50)
        assert len(rows) == 4 + 49 + 49 + 47
        for row in rows:
            g, r = row.case.g_type, row.case.r_type
            assert row.dim_gap == group_dimension(g) - group_dimension(r)
            assert row.rank_plus_3 == g.rank + 3

    def test_exactly_two_exceptions(self):
        exceptions = dimension_gap_exceptions(50)
        assert {(str(c.g_type), str(c.r_type)) for c in exceptions} == {
            ("A3", "B2"), ("D4", "B3")}

    def test_lmax_validation(self):
        with pytest.raises(ValueError):
            principal_table(3)

    def test_row_subregular_check_matches_lookup(self):
        for row in principal_table(12):
            g, r = row.case.g_type, row.case.r_type
            assert row.subregular_check() == subregular_membership_check(g, r)


class TestDimensionGap:
    def test_holds_for_a6_g2(self):
        v = dimension_gap_check(T("A6"), T("G2"))
        assert v.holds and v.witness is Witness.SUBREGULAR
        assert v.numbers["gap"] == 34 and v.numbers["bound"] == 9

    def test_d4_b3_deferred(self):
        v = dimension_gap_check(T("D4"), T("B3"))
        assert not v.holds and v.witness is Witness.NONE
        assert v.numbers["gap"] == 7 == v.numbers["bound"]
        assert "deferred" in v.note

    def test_a3_alias_exception(self):
        v = dimension_gap_check(T("A3"), T("C2"))  # C2 canonicalizes to B2
        assert not v.holds
        assert v.numbers["gap"] == 5 and v.numbers["bound"] == 6

    def test_e6_f4(self):
        v = dimension_gap_check(T("E6"), T("F4"))
        assert v.holds and v.numbers["gap"] == 26

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedCaseError):
            dimension_gap_check(T("E7"), T("E6"))


class TestSubregularMembership:
    def test_symplectic_obstruction(self):
        v = subregular_membership_check(T("A5"), T("C3"))
        assert v.holds and v.criterion is Criterion.SUBREGULAR_PARTITION
        assert tuple(v.partition) == (5, 1)

    def test_orthogonal_obstruction(self):
        v = subregular_membership_check(T("A4"), T("B2"))
        assert v.holds and tuple(v.partition) == (4, 1)

    def test_fixed_line_obstruction(self):
        v = subregular_membership_check(T("D5"), T("B4"))
        assert v.holds and tuple(v.partition) == (7, 3)
        assert "no part 1" in v.note

    @pytest.mark.parametrize("g,r,fragment", [
        ("B3", "G2", "triality"),
        ("D4", "G2", "triality"),
        ("A6", "G2", "not orthogonal"),
        ("E6", "F4", "codimension 10"),
    ])
    def test_cited_pairs(self, g, r, fragment):
        v = subregular_membership_check(T(g), T(r))
        assert v.holds and v.criterion is Criterion.CITED_ONLY
        assert v.witness is Witness.SUBREGULAR
        assert fragment in v.citation

    def test_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            subregular_membership_check(T("B4"), T("D4"))


class TestEmbeddingVerdict:
    def test_rank2_coincidence_goes_principal(self):
        v = embedding_verdict(T("A3"), T("B2"))
        assert v.holds and v.witness is Witness.PRINCIPAL
        assert v.criterion is Criterion.ORBIT_COUNT
        assert v.numbers["orbit_count_g"] == 5 and v.numbers["orbit_count_r"] == 4

    def test_a4_b2_goes_principal(self):
        v = embedding_verdict(T("A4"), T("B2"))
        assert v.witness is Witness.PRINCIPAL

    def test_d4_b3_subregular_partition(self):
        v = embedding_verdict(T("D4"), T("B3"))
        assert v.holds and v.witness is Witness.SUBREGULAR
        assert v.criterion is Criterion.SUBREGULAR_PARTITION
        assert tuple(v.partition) == (5, 3)
        assert v.numbers["gap"] == 7 and v.numbers["bound"] == 7

    def test_verdict_with_partition_deep_copies(self):
        v = embedding_verdict(T("D4"), T("B3"))
        w = copy.deepcopy(v)
        assert w == v and w.partition == v.partition and w.partition is not None

    def test_e6_f4_cited(self):
        v = embedding_verdict(T("E6"), T("F4"))
        assert v.holds and v.witness is Witness.SUBREGULAR
        assert v.criterion is Criterion.CITED_ONLY
        assert v.numbers["gap"] == 26

    def test_parametrized_family_member(self):
        v = embedding_verdict(T("A10"), T("B5"))
        assert v.holds and v.criterion is Criterion.SUBREGULAR_PARTITION
        assert tuple(v.partition) == (10, 1)
        assert v.numbers["l"] == 5

    def test_collects_every_number(self):
        v = embedding_verdict(T("D6"), T("B5"))
        for key in ("orbit_count_g", "orbit_count_r", "dim_g", "dim_r",
                    "gap", "bound", "rank_g", "l"):
            assert key in v.numbers, key

    @pytest.mark.parametrize("g,r", [
        ("A1", "A1"), ("E8", "G2"), ("B4", "B2"), ("D4", "A3"), ("G2", "A2"),
        ("A7", "B3"), ("D5", "B3"), ("A41", "C20"), ("A40", "C20"), ("A2", "A1"),
        ("A5", "B2"), ("D21", "C20"), ("E6", "G2"),
    ])
    def test_unsupported_pairs(self, g, r):
        with pytest.raises(UnsupportedCaseError, match="supported cases"):
            embedding_verdict(T(g), T(r))

    @pytest.mark.parametrize("g,r", [
        ("A3", "B2"), ("D4", "B3"), ("E6", "F4"), ("B3", "G2"), ("A9", "C5"),
        ("A10", "B5"), ("D10", "B9"),
    ])
    def test_pair_resolved_once(self, monkeypatch, g, r):
        calls = []

        def counting(*args):
            calls.append(args)
            return identify(*args)

        identify = embedcheck._identify
        monkeypatch.setattr(embedcheck, "_identify", counting)
        embedding_verdict(T(g), T(r))
        assert len(calls) == 1


class TestCaseTable:
    def test_supported_case_lines(self):
        assert SUPPORTED_CASES == (
            "G=A3 or A4, R=B2 (=C2)",
            "G=B3, D4 or A6, R=G2",
            "G=A2l (l>=2), R=Bl",
            "G=A2l-1 (l>=2), R=Cl",
            "G=Dl (l>=4), R=Bl-1",
            "G=E6, R=F4",
        )

    @pytest.mark.parametrize("g,r,l", [
        ("A41", "C21", 21), ("A40", "B20", 20), ("D21", "B20", 21), ("A3", "C2", 2),
    ])
    def test_parameter_solved_from_rank(self, g, r, l):
        v = embedding_verdict(T(g), T(r))
        assert v.holds and v.case.family_parameter == l == v.numbers["l"]

    def test_closed_form_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(embedcheck, "group_dimension",
                            lambda t: group_dimension(t) + (t.family == "G"))
        with pytest.raises(InconsistencyError, match=r"B3 > G2: closed form \(6, 7\)"):
            principal_table(4)
        with pytest.raises(InconsistencyError):
            dimension_gap_check(T("A6"), T("G2"))
