"""Workload generation, output checks and the metric list."""

import json
import random
import statistics
from collections import Counter
from itertools import chain, islice
from pathlib import Path

import pytest

from perfbench import checks, oracles, runner, workloads


def take(workload, seed, n_ops):
    return list(islice(chain.from_iterable(workloads.rounds(workload, seed)), n_ops))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = take(workload, 11, 60)
    assert first == take(workload, 11, 60)
    assert first != take(workload, 12, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_mix(workload):
    mixes = set()
    for seed in (1, 2):
        stream = workloads.rounds(workload, seed)
        for _ in range(3):
            mixes.add(frozenset(Counter(op.kind for op in next(stream)).items()))
    assert len(mixes) == 1


def test_appendix_bands_pin_the_median_size():
    for seed in range(5):
        for rounds in (1, 2):
            sizes = sorted(op.args[0] for op in take("appendix", seed, 10 * rounds))
            assert statistics.median(sizes) == 60 and 40 <= sizes[0] and sizes[-1] <= 80


def test_draws_stay_in_range_and_spread_evenly():
    draws = workloads.Draws(random.Random(3))
    values = [draws.integer("k", 2, 8) for _ in range(700)]
    assert min(values) == 2 and max(values) == 8
    assert max(Counter(values).values()) - min(Counter(values).values()) <= 3


def test_no_witness_certificates_are_valid():
    rng = random.Random(5)
    for _ in range(20):
        k1, _, point = workloads._kernel_sets(rng, found=False)
        assert oracles.on_sl2(point)
        assert all(oracles.evaluate(f, point) == 0 for f in k1)


def test_checks_reject_wrong_outputs():
    counts = oracles.PartitionCounts()
    op = workloads.Op("centralizer", {"total": 3}, ((2, 1),))
    assert checks.check_orbit_op(op, 5, None, counts) is None
    assert checks.check_orbit_op(op, 6, None, counts) is not None
    unsupported = workloads.Op("verdict", {"rank": 7, "l": None}, ("E7", "F4", False))
    assert checks.check_orbit_op(unsupported, object(), None, counts) is not None

    class Poly:
        def __init__(self, terms):
            self.terms = terms

    f = {(1, 0, 0, 0): oracles.Fraction(1), (0, 0, 0, 0): oracles.Fraction(2)}
    mul = workloads.Op("mul", {}, (f, f))
    square = oracles.poly_mul(f, f)
    assert checks.check_lnd_op(mul, Poly(square), None, None) is None
    assert checks.check_lnd_op(mul, Poly(f), None, None) is not None
    assert checks.check_appendix(40, 1, b"", counts) == "exit code 1"


def test_tail_estimate_and_count_beyond():
    times = [float(i) for i in range(1, 1001)]
    value, beyond = runner.tail(times, 99)
    assert beyond == 10 and 985 < value < 995
    value, beyond = runner.tail(times[:20], 50)
    assert beyond == 10 and abs(value - 10.5) < 1e-9
    assert runner.tail([3.0], 99) == (3.0, 0)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((Path(runner.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        runner.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
