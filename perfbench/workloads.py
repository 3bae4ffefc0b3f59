"""Seeded operation streams for the three workloads.

A stream is an endless sequence of *rounds*.  Every round has the same
composition (so many operations of each kind and size band); the seed
picks the sizes inside each band and the order.  Runs stop only at a
round boundary, so two runs with different seeds do the same mix of
work and their medians and rates can be compared.

Sizes are drawn along low-discrepancy sequences from seeded starts, not
independently: consecutive draws of one stream spread evenly over its
range, so a short run already covers the range and the rare expensive
sizes turn up at the same rate under every seed.

The generators build inputs with the benchmark's own arithmetic
(``oracles``); orbitkit only ever receives the finished inputs.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import oracles

WORKLOADS = ("appendix", "orbit-queries", "lnd-algebra")

# orbit-queries ranges.  Embedding pairs keep G at rank <= 100, so the A
# families stop at l = 50; root systems of that size stay a small share
# of the work next to partition counting and enumeration.
COUNT_RANK_MAX = 300
VERDICT_L_MAX = {"A-even": 50, "A-odd": 50, "D": 100}
CLASSIFY_RANK_MAX = 40
ORACLE_TOTAL_MAX = 8

# lnd-algebra caps.  No single operation may take more than about one
# percent of a 30 s run as orbitkit stood when this benchmark was written,
# or a run's totals would hinge on how many of the few giant operations it
# happened to draw.  A 5-term element to the 8th power (1-2 s) and
# delta_degree on a product of four elements (up to 2 s) are over that
# line, so powers of 5-term elements stop at exponent 7 and products have
# at most three factors.
DELTA_FACTORS_MAX = 3

_FIXED_PAIRS = (("B3", "G2"), ("D4", "G2"), ("A6", "G2"), ("E6", "F4"))
_EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


@dataclass(frozen=True)
class Op:
    """One operation: its kind, its size parameters (recorded with its
    time, for scaling curves) and its inputs."""

    kind: str
    size: dict
    args: tuple = ()


class Draws:
    """Seeded low-discrepancy draws.

    Each key is a Kronecker sequence start + k * alpha (mod 1) with a
    seeded start.  Every key gets its own increment, the fractional part
    of the square root of a different prime, so streams advanced side by
    side are not correlated with each other."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._state: dict[str, list] = {}
        self._primes = _primes()

    def unit(self, key: str) -> float:
        state = self._state.get(key)
        if state is None:
            alpha = math.sqrt(next(self._primes)) % 1.0
            state = self._state[key] = [self.rng.random(), alpha, 0]
        start, alpha, k = state
        state[2] = k + 1
        return (start + k * alpha) % 1.0

    def integer(self, key: str, lo: int, hi: int) -> int:
        return lo + min(int(self.unit(key) * (hi - lo + 1)), hi - lo)

    def pick(self, key: str, options):
        return options[self.integer(key, 0, len(options) - 1)]


def _primes():
    n = 1
    while True:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n


def rounds(workload: str, seed: int):
    """Endless iterator of rounds (lists of Op) for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"appendix": _appendix_round, "orbit-queries": _orbit_round,
            "lnd-algebra": _lnd_round}[workload]
    draws = Draws(rng)
    while True:
        ops = make(rng, draws)
        rng.shuffle(ops)
        yield ops


def schedule(workload: str, seed: int, seconds: float, n_ops: int | None = None):
    """The operations of one run: whole rounds until `seconds` of wall
    time have passed since the first was requested, or, when n_ops is
    given, exactly the first n_ops operations."""
    start = time.perf_counter()
    done = 0
    for ops in rounds(workload, seed):
        if n_ops is None and time.perf_counter() - start >= seconds:
            return
        for op in ops:
            if n_ops is not None and done >= n_ops:
                return
            done += 1
            yield op


# -- appendix -------------------------------------------------------------

def _appendix_round(rng, draws):
    # One L from each band of 40..80.  The two middle bands are the single
    # value 60, so the median operation is the same size under every seed,
    # and the narrow bands keep a round's total work nearly seed-independent.
    bands = ((40, 44), (45, 49), (50, 54), (55, 59), (60, 60), (60, 60),
             (61, 65), (66, 70), (71, 75), (76, 80))
    return [Op("appendix", {"lmax": lmax}, (lmax,))
            for lmax in (draws.integer(f"L{lo}-{hi}", lo, hi) for lo, hi in bands)]


# -- orbit-queries --------------------------------------------------------

def _partition(draws, key):
    total = draws.integer(key + "-total", 1, ORACLE_TOTAL_MAX)
    choices = oracles.partitions_of(total)
    return draws.pick(key + f"-{total}", choices)


def _unsupported_pair(draws):
    pattern = draws.integer("unsupported", 0, 5)
    if pattern == 0:
        l = draws.integer("unsupported-l", 3, 30)
        return f"A{2 * l}", f"C{l}"
    if pattern == 1:
        l = draws.integer("unsupported-l", 4, 30)
        return f"D{l}", f"C{l - 1}"
    if pattern == 2:
        l = draws.integer("unsupported-l", 3, 30)
        return f"B{l}", f"B{l - 1}"
    return (("E7", "F4"), ("E8", "G2"), ("G2", "A2"))[pattern - 3]


def _verdict(family, l):
    if family == "A-even":
        g, r = f"A{2 * l}", f"B{l}"
    elif family == "A-odd":
        g, r = f"A{2 * l - 1}", f"C{l}"
    else:
        g, r = f"D{l}", f"B{l - 1}"
    return Op("verdict", {"rank": int(g[1:]), "l": l}, (g, r, True))


def _orbit_round(rng, draws):
    ops = []
    for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        for _ in range(2):
            rank = draws.integer(f"count-{family}", low, COUNT_RANK_MAX)
            ops.append(Op("count", {"rank": rank}, (family, rank)))
    label = draws.pick("exceptional", _EXCEPTIONAL)
    ops.append(Op("count", {"rank": int(label[1])}, (label[0], int(label[1]))))
    for family, l_max in VERDICT_L_MAX.items():
        l_min = 4 if family == "D" else 2
        ops.append(_verdict(family, draws.integer(f"verdict-{family}", l_min, l_max)))
    g, r = draws.pick("fixed-pair", _FIXED_PAIRS)
    ops.append(Op("verdict", {"rank": int(g[1:]), "l": None}, (g, r, True)))
    g, r = _unsupported_pair(draws)
    ops.append(Op("verdict", {"rank": int(g[1:]), "l": None}, (g, r, False)))
    n = draws.integer("classify", 1, CLASSIFY_RANK_MAX)
    ops.append(Op("classify", {"rank": n}, (n,)))
    for _ in range(3):
        parts = _partition(draws, "dimension")
        ops.append(Op("dimension", {"total": sum(parts)}, (parts,)))
    for _ in range(12):
        parts = _partition(draws, "centralizer")
        ops.append(Op("centralizer", {"total": sum(parts)}, (parts,)))
    return ops


# -- lnd-algebra ----------------------------------------------------------

_NORMAL_MONOMIALS = tuple(
    (i, j, k, l)
    for i in range(4) for j in range(4) for k in range(4) for l in range(4)
    if i + j + k + l <= 3 and not (i and l))


def random_element(rng, terms: int):
    """A normal-form element of C[SL2]: `terms` distinct monomials of
    degree <= 3 with small rational coefficients."""
    monos = rng.sample(_NORMAL_MONOMIALS, terms)
    return {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
            for m in monos}


def _degree(f) -> int:
    return max(sum(m) for m in f)


def _linear_form(rng, first, second):
    """alpha*x + beta*y with both coefficients drawn from small nonzero
    integers, as an (alpha, beta, poly) triple."""
    alpha, beta = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
    return alpha, beta, {first: Fraction(alpha), second: Fraction(beta)}


_A1, _A2, _B1, _B2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _independent_pair(rng, first, second):
    while True:
        (a, b, f), (c, d, g) = (_linear_form(rng, first, second) for _ in range(2))
        if a * d != b * c:
            return [f, g]


def _kernel_sets(rng, found: bool):
    """Kernel sets for d1 (polynomials in a1, a2) and d2 (in b1, b2).

    found: each side holds two independent linear forms, so the degree-2
    products span a1*b2 - a2*b1 = 1 and a witness exists.  Otherwise the
    d1 side is a single linear form l, which vanishes at a point of SL2,
    so every product vanishes there and 1 is not in their span; that
    point is returned as the certificate."""
    k2 = _independent_pair(rng, _B1, _B2)
    if found:
        return _independent_pair(rng, _A1, _A2), k2, None
    alpha, beta, ell = _linear_form(rng, _A1, _A2)
    # a1 = beta, a2 = -alpha kills l, and b1 = 1/alpha, b2 = 0 makes det = 1
    point = (Fraction(beta), Fraction(-alpha), Fraction(1, alpha), Fraction(0))
    return [ell], k2, point


def _product(factors):
    out = oracles.ONE
    for f in factors:
        out = oracles.poly_mul(out, f)
    return out


def _lnd_round(rng, draws):
    # Sizes that multiply each other's cost (the two factors of a product,
    # an element's length and its exponent) are drawn jointly, as one
    # index over their grid, so every combination comes up equally often.
    # The one power over the size cap (5 terms, exponent 8) is replaced by
    # the largest one under it (4 terms, exponent 8).
    ops = []

    def sizes(key, *ranges):
        index = draws.integer(key, 0, math.prod(hi - lo + 1 for lo, hi in ranges) - 1)
        out = []
        for lo, hi in reversed(ranges):
            index, offset = divmod(index, hi - lo + 1)
            out.append(lo + offset)
        return out[::-1]

    for _ in range(4):
        f, g = (random_element(rng, n) for n in sizes("mul", (2, 5), (2, 5)))
        ops.append(Op("mul", {"terms": len(f) * len(g), "degree": _degree(f) + _degree(g)},
                      (f, g)))
    for _ in range(2):
        terms, e = sizes("pow", (2, 5), (2, 8))
        if (terms, e) == (5, 8):
            terms, e = 4, 8
        f = random_element(rng, terms)
        ops.append(Op("pow", {"terms": terms, "degree": _degree(f), "exponent": e}, (f, e)))
    for i in range(6):
        if i % 2:
            raw = _product([random_element(rng, n)
                            for n in sizes("nf-product", (2, 5), (2, 5))])
        else:
            terms, e = sizes("nf-power", (2, 5), (2, 4))
            raw = oracles.poly_pow(random_element(rng, terms), e)
        ops.append(Op("normal_form", {"terms": len(raw), "degree": _degree(raw)}, (raw,)))
    for i in range(6):
        factors = tuple(random_element(rng, n) for n in sizes("apply", (2, 5), (2, 5)))
        nf = oracles.normal_form(_product(factors))
        ops.append(Op("apply_derivation", {"terms": len(nf), "degree": _degree(nf)},
                      (1 + i % 2, factors, nf)))
    for i in range(2):
        k = draws.integer("delta-factors", 1, DELTA_FACTORS_MAX)
        factors = tuple(random_element(rng, n)
                        for n in sizes(f"delta-{k}", *[(2, 5)] * k))
        nf = oracles.normal_form(_product(factors))
        ops.append(Op("delta_degree", {"terms": len(nf), "degree": _degree(nf),
                                       "factors": k},
                      (1 + i % 2, factors, nf)))
    found, cap = sizes("witness", (0, 1), (2, 6))
    k1, k2, point = _kernel_sets(rng, bool(found))
    ops.append(Op("witness", {"degree": cap, "kernel": len(k1) + len(k2)},
                  (bool(found), tuple(k1), tuple(k2), cap, point)))
    return ops
