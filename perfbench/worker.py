"""One long-lived process serving an in-process workload.

    python -m perfbench.worker --workload orbit-queries --seed 1 \\
        --seconds 30 --out result.json [--ops N] [--trace]

The worker draws rounds from the seeded stream and runs them until
--seconds of wall time have passed (finishing the round it is in), or
exactly --ops operations.  Each operation is timed on its own; its
output is checked right after, outside the timed region.  orbitkit's
caches persist across operations, as in any long-lived caller.

orbitkit functions are looked up on their modules at call time, so the
span recorder, when --trace installs it, sees every call.
"""

import argparse
import json
import resource
import sys
import time

from orbitkit import embedcheck, lndcalc, orbits, partitions, rootsys

from . import checks, oracles, workloads
from .spans import SpanRecorder


class OrbitQueries:
    def __init__(self):
        self.counts = oracles.PartitionCounts()

    def prepare(self, op):
        if op.kind == "count":
            t = rootsys.LieType(*op.args)
            return lambda: orbits.nilpotent_orbit_count(t)
        if op.kind == "verdict":
            g, r = (rootsys.LieType.from_string(label) for label in op.args[:2])
            return lambda: embedcheck.embedding_verdict(g, r)
        if op.kind == "classify":
            n = op.args[0]
            return lambda: orbits.classify_nilpotent_orbits_typeA(n)
        p = partitions.Partition(op.args[0])
        if op.kind == "dimension":
            return lambda: orbits.orbit_dimension_typeA(p)
        return lambda: orbits.centralizer_dimension_oracle(p)

    def check(self, op, result, error):
        return checks.check_orbit_op(op, result, error, self.counts)


class LndAlgebra:
    def __init__(self):
        self.ring = lndcalc.sl2_coordinate_ring()
        self.derivations = dict(zip((1, 2), lndcalc.sl2_standard_derivations()))
        self.normal_form = type(self.ring).normal_form

    def _poly(self, terms):
        return lndcalc.MultiPoly(self.ring.gens, terms)

    def prepare(self, op):
        ring, kind = self.ring, op.kind
        if kind == "mul":
            f, g = (self._poly(t) for t in op.args)
            return lambda: f * g
        if kind == "pow":
            f, e = self._poly(op.args[0]), op.args[1]
            return lambda: f ** e
        if kind == "normal_form":
            raw = self._poly(op.args[0])
            return lambda: ring.normal_form(raw)
        if kind in ("apply_derivation", "delta_degree"):
            which, _, element = op.args
            d, f = self.derivations[which], self._poly(element)
            if kind == "apply_derivation":
                return lambda: lndcalc.apply_derivation(ring, d, f)
            return lambda: lndcalc.delta_degree(ring, d, f)
        _, k1, k2, cap, _ = op.args
        k1, k2 = [self._poly(t) for t in k1], [self._poly(t) for t in k2]
        d1, d2 = self.derivations[1], self.derivations[2]
        return lambda: lndcalc.verify_semicompatibility_witness(ring, d1, d2, k1, k2, cap)

    def check(self, op, result, error):
        # the recorder wraps QuotientRing.normal_form; the original is
        # bound here so the idempotence check adds no spans
        return checks.check_lnd_op(op, result, error,
                                   lambda f: self.normal_form(self.ring, f))


SERVERS = {"orbit-queries": OrbitQueries, "lnd-algebra": LndAlgebra}


def run(workload: str, seed: int, seconds: float, n_ops: int | None, trace: bool) -> dict:
    server = SERVERS[workload]()
    recorder = SpanRecorder().install() if trace else None
    records = []
    for op in workloads.schedule(workload, seed, seconds, n_ops):
        call = server.prepare(op)
        if recorder is not None:
            recorder.op = len(records)
        error = result = None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # recorded as a failed operation
            error = exc
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = -1
        records.append([op.kind, op.size, elapsed, server.check(op, result, error)])
    out = {"records": records,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        recorder.uninstall()
        out["trace"] = recorder.dump()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(SERVERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.ops, args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
