"""The span recorder: self-time arithmetic, and that tracing changes no
result."""

from orbitkit import embedcheck, lndcalc, orbits
from orbitkit.partitions import Partition
from orbitkit.rootsys import LieType

from perfbench.spans import SPAN_NAMES, LayerTotals, SpanRecorder, self_times


def _dump(spans, counters=None):
    return {"names": list(SPAN_NAMES), "spans": spans, "counters": counters or {},
            "cache": {}}


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] (which holds g [20, 30]) and b [50, 60]
    spans = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (2, 20, 30, 1, 0), (3, 50, 60, 0, 0)]
    assert self_times(spans) == [60, 20, 10, 10]


def test_layer_totals_sum_dumps_by_name_and_layer():
    idx = SPAN_NAMES.index
    first = [(idx("orbits.nilpotent_orbit_count"), 0, 50, -1, 0),
             (idx("partitions.count_partitions"), 10, 20, 0, 0),
             (idx("partitions.count_partitions"), 30, 45, 0, 0)]
    second = [(idx("orbits.nilpotent_orbit_count"), 0, 5, -1, 1)]
    totals = LayerTotals()
    totals.add(_dump(first))
    totals.add(_dump(second))
    assert totals.calls["partitions.count_partitions"] == 2
    assert totals.self_ns["partitions.count_partitions"] == 25
    assert totals.self_ns["orbits.nilpotent_orbit_count"] == 25 + 5
    assert totals.root_ns == 55
    assert totals.layer_self_s("partitions") == 25e-9
    assert totals.by_op[1] == {"orbits.nilpotent_orbit_count": 5}


def _sample_results():
    ring = lndcalc.sl2_coordinate_ring()
    d1, d2 = lndcalc.sl2_standard_derivations()
    f = ring.element("a1*a2 + 2*b1 - 1/3")
    g = ring.element("b2^2 - a2")
    a1, a2, b1, b2 = (ring.generator(n) for n in ring.gens)
    witness = lndcalc.verify_semicompatibility_witness(ring, d1, d2, [a1, a2], [b1, b2], 2)
    return [
        orbits.nilpotent_orbit_count(LieType("D", 6)).count,
        orbits.classify_nilpotent_orbits_typeA(5),
        orbits.centralizer_dimension_oracle(Partition((3, 1))),
        embedcheck.embedding_verdict(LieType("D", 5), LieType("B", 4)),
        f * g, 3 * f, f ** 3, ring.normal_form(f * g),
        lndcalc.apply_derivation(ring, d1, f * g),
        lndcalc.delta_degree(ring, d2, f * g),
        witness.equation(),
    ]


def test_tracing_is_transparent_and_uninstall_restores():
    originals = (orbits.nilpotent_orbit_count, embedcheck.nilpotent_orbit_count,
                 lndcalc.MultiPoly.__mul__, lndcalc.MultiPoly.__rmul__)
    plain = _sample_results()
    recorder = SpanRecorder()
    with recorder:
        assert orbits.nilpotent_orbit_count is not originals[0]
        assert embedcheck.nilpotent_orbit_count is orbits.nilpotent_orbit_count
        traced = _sample_results()
    assert traced == plain
    assert (orbits.nilpotent_orbit_count, embedcheck.nilpotent_orbit_count,
            lndcalc.MultiPoly.__mul__, lndcalc.MultiPoly.__rmul__) == originals
    names = {SPAN_NAMES[s[0]] for s in recorder.spans}
    assert {"orbits.nilpotent_orbit_count", "partitions.count_partitions",
            "partitions.enumerate_partitions", "embedcheck.embedding_verdict",
            "rootsys.group_dimension", "lndcalc.mul", "lndcalc.pow",
            "lndcalc.normal_form", "lndcalc.delta_degree",
            "lndcalc.witness_search"} <= names


def test_spans_nest_and_counters_count():
    ring = lndcalc.sl2_coordinate_ring()
    raw = ring.parse("a1*b2 + a1^2*b2^2")
    with SpanRecorder() as recorder:
        recorder.op = 7
        orbits.classify_nilpotent_orbits_typeA(4)
        ring.normal_form(raw)
    spans = recorder.spans
    root = spans[0]
    assert SPAN_NAMES[root[0]] == "orbits.classify_nilpotent_orbits_typeA" and root[3] == -1
    children = [SPAN_NAMES[s[0]] for s in spans if s[3] == 0]
    assert "partitions.enumerate_partitions" in children
    assert all(s[4] == 7 for s in spans)
    assert all(s[1] <= s[2] for s in spans)
    assert recorder.counters["partitions.enumerate_partitions.items"] == 7
    assert recorder.counters["lndcalc.normal_form.terms_in"] == 2
    # a2*b1 + 1 + (a2*b1 + 1)^2 = a2^2*b1^2 + 3*a2*b1 + 2
    assert recorder.counters["lndcalc.normal_form.terms_out"] == 3
