"""The benchmark's own oracles return known values and agree with brute
force where brute force is cheap."""

from fractions import Fraction

from perfbench import oracles
from perfbench.checks import appendix_record_count


def test_partition_numbers():
    counts = oracles.PartitionCounts()
    assert counts.p(100) == 190569292
    assert [counts.p(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [counts.q(n) for n in range(12)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12]


def test_orbit_counts_match_paper_anchors():
    counts = oracles.PartitionCounts()
    assert counts.orbit_count("A", 3) == 5
    assert counts.orbit_count("B", 2) == 4
    assert [counts.orbit_count(f, r) for f, r in
            (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8))] == [5, 16, 21, 45, 70]


def test_classical_counts_match_enumerated_jordan_types():
    counts = oracles.PartitionCounts()

    def allowed(n, even_parts_paired):
        total = 0
        for parts in oracles.partitions_of(n):
            paired = [p for p in set(parts) if p % 2 == (0 if even_parts_paired else 1)]
            total += all(parts.count(p) % 2 == 0 for p in paired)
        return total

    for rank in range(2, 9):
        assert counts.orbit_count("B", rank) == allowed(2 * rank + 1, True)
        assert counts.orbit_count("C", rank) == allowed(2 * rank, False)
    for rank in range(4, 9):
        assert counts.orbit_count("D", rank) == allowed(2 * rank, True)


def test_dimensions_and_centralizers():
    assert [oracles.group_dimension(*t) for t in
            (("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E", 8))] == [3, 10, 21, 28, 248]
    assert oracles.parse_type("C2") == ("B", 2)
    assert oracles.centralizer_dimension((1, 1, 1)) == 9
    assert oracles.centralizer_dimension((4,)) == 4
    assert oracles.centralizer_dimension((2, 1)) == 5
    assert appendix_record_count(80) == 718


def test_sl2_arithmetic():
    a1, a2, b1, b2 = ({m: Fraction(1)} for m in
                      ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    det = oracles.poly_add(oracles.poly_mul(a1, b2),
                           {m: -c for m, c in oracles.poly_mul(a2, b1).items()})
    assert oracles.normal_form(det) == oracles.ONE
    assert oracles.normal_form(oracles.poly_pow(oracles.poly_mul(a1, b2), 2)) == {
        (0, 2, 2, 0): 1, (0, 1, 1, 0): 2, (0, 0, 0, 0): 1}
    assert oracles.derive(b1, 1) == a1 and oracles.derive(a2, 2) == b2
    a1b2 = oracles.poly_mul(a1, b2)
    assert oracles.delta_degree(a1b2, 1) == 1 and oracles.delta_degree(a1b2, 2) == 1
    point = (Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    assert oracles.on_sl2(point) and oracles.evaluate(det, point) == 1
