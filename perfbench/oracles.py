"""Independent oracles for the benchmark's output checks.

Nothing in this module imports orbitkit or shares its methods:

* partition numbers come from Euler's pentagonal recurrence, and the
  distinct-part and orthogonal/symplectic counts from generating-function
  identities built on them, not from a parts-bounded DP table;
* classical orbit counts are counts of the Jordan types allowed in each
  classical algebra (orthogonal or symplectic partitions), not the
  pair-of-partitions formula;
* centralizer dimensions are sum((lambda*_i)^2), not a linear solve;
* C[SL2] arithmetic uses the closed form (a1*b2)^m = (a2*b1 + 1)^m for
  the normal form, not iterated rewriting.
"""

from fractions import Fraction
from math import comb

EXCEPTIONAL_ORBIT_COUNTS = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}
EXCEPTIONAL_DIMENSIONS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def _pentagonal_terms(limit):
    """(sign, generalized pentagonal number) pairs up to limit, as in
    prod(1 - x^k) = sum over k of (-1)^k x^(k(3k-1)/2)."""
    out = [(1, 0)]
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        if g1 > limit:
            return out
        out.append((sign, g1))
        if g2 <= limit:
            out.append((sign, g2))
        k += 1


class PartitionCounts:
    """Partition counts, grown on demand.

    p(n): all partitions.  q(n): partitions into distinct parts, from
    prod(1 + x^k) = P(x) * E(x^2) where E is Euler's pentagonal series.
    """

    def __init__(self):
        self._p = [1]
        self._q = [1]

    def p(self, n: int) -> int:
        while len(self._p) <= n:
            m = len(self._p)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                if g1 > m:
                    break
                sign = 1 if k % 2 else -1
                total += sign * self._p[m - g1]
                g2 = k * (3 * k + 1) // 2
                if g2 <= m:
                    total += sign * self._p[m - g2]
                k += 1
            self._p.append(total)
        return self._p[n]

    def q(self, n: int) -> int:
        while len(self._q) <= n:
            m = len(self._q)
            self._q.append(sum(sign * self.p(m - 2 * g)
                               for sign, g in _pentagonal_terms(m // 2)))
        return self._q[n]

    def orthogonal(self, n: int) -> int:
        """Partitions of n whose even parts have even multiplicity:
        prod over odd k of 1/(1-x^k) times prod over even k of
        1/(1-x^2k), i.e. Q(x) * P(x^4)."""
        return sum(self.q(n - 4 * j) * self.p(j) for j in range(n // 4 + 1))

    def symplectic(self, n: int) -> int:
        """Partitions of n whose odd parts have even multiplicity:
        P(x^2) * Q(x^2), so zero for odd n."""
        if n % 2:
            return 0
        half = n // 2
        return sum(self.p(j) * self.q(half - j) for j in range(half + 1))

    def orbit_count(self, family: str, rank: int) -> int:
        """Nilpotent orbits of the simple algebra, zero orbit included.
        D counts each very even Jordan type once, as the paper does."""
        if family == "A":
            return self.p(rank + 1)
        if family == "B":
            return self.orthogonal(2 * rank + 1)
        if family == "C":
            return self.symplectic(2 * rank)
        if family == "D":
            return self.orthogonal(2 * rank)
        return EXCEPTIONAL_ORBIT_COUNTS[f"{family}{rank}"]


def parse_type(label: str) -> tuple[str, int]:
    """'B12' -> ('B', 12), with the low-rank coincidences C2 = B2 and
    D3 = A3 applied."""
    family, rank = label[0], int(label[1:])
    if (family, rank) == ("C", 2):
        return "B", 2
    if (family, rank) == ("D", 3):
        return "A", 3
    return family, rank


def group_dimension(family: str, rank: int) -> int:
    n = rank
    if family == "A":
        return n * (n + 2)
    if family in "BC":
        return n * (2 * n + 1)
    if family == "D":
        return n * (2 * n - 1)
    return EXCEPTIONAL_DIMENSIONS[f"{family}{rank}"]


def conjugate(parts) -> list[int]:
    return [sum(1 for p in parts if p >= i) for i in range(1, (max(parts) if parts else 0) + 1)]


def centralizer_dimension(parts) -> int:
    """dim of the centralizer in gl_k of a nilpotent of Jordan type parts."""
    return sum(c * c for c in conjugate(parts))


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of a small n, largest first (used to draw inputs)."""
    out = []

    def walk(rest, cap, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, cap), 0, -1):
            walk(rest - part, part, prefix + [part])

    walk(n, n, [])
    return out


# -- C[SL2] = Q[a1, a2, b1, b2] / (a1*b2 - a2*b1 - 1) -------------------
# A polynomial is a dict from exponent tuples (a1, a2, b1, b2) to nonzero
# Fractions, the same layout orbitkit's MultiPoly.terms uses, so results
# can be compared as plain dicts.

ONE = {(0, 0, 0, 0): Fraction(1)}


def _accumulate(out, mono, coef):
    s = out.get(mono, 0) + coef
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def poly_add(f, g):
    out = dict(f)
    for m, c in g.items():
        _accumulate(out, m, c)
    return out


def poly_mul(f, g):
    out = {}
    for (i1, j1, k1, l1), c1 in f.items():
        for (i2, j2, k2, l2), c2 in g.items():
            _accumulate(out, (i1 + i2, j1 + j2, k1 + k2, l1 + l2), c1 * c2)
    return out


def poly_pow(f, e):
    out = ONE
    for _ in range(e):
        out = poly_mul(out, f)
    return out


def normal_form(f):
    """Reduce modulo the determinant relation in closed form:
    a1^i b2^l with m = min(i, l) becomes a1^(i-m) b2^(l-m) (a2 b1 + 1)^m."""
    out = {}
    for (i, j, k, l), c in f.items():
        m = min(i, l)
        for t in range(m + 1):
            _accumulate(out, (i - m, j + t, k + t, l - m), c * comb(m, t))
    return out


def derive(f, which: int):
    """d1 = a1 d/db1 + a2 d/db2 or d2 = b1 d/da1 + b2 d/da2, then reduce."""
    out = {}
    for (i, j, k, l), c in f.items():
        if which == 1:
            if k:
                _accumulate(out, (i + 1, j, k - 1, l), c * k)
            if l:
                _accumulate(out, (i, j + 1, k, l - 1), c * l)
        else:
            if i:
                _accumulate(out, (i - 1, j, k + 1, l), c * i)
            if j:
                _accumulate(out, (i, j - 1, k, l + 1), c * j)
    return normal_form(out)


def delta_degree(f, which: int, cap: int = 256) -> int:
    """Largest n with d^n(f) != 0 for a nonzero normal form f."""
    g = normal_form(f)
    if not g:
        raise ValueError("delta-degree of zero")
    n = -1
    while g:
        n += 1
        if n > cap:
            raise ValueError(f"not nilpotent within {cap} steps")
        g = derive(g, which)
    return n


def evaluate(f, point) -> Fraction:
    a1, a2, b1, b2 = point
    return sum((c * a1 ** i * a2 ** j * b1 ** k * b2 ** l
                for (i, j, k, l), c in f.items()), Fraction(0))


def on_sl2(point) -> bool:
    a1, a2, b1, b2 = point
    return a1 * b2 - a2 * b1 == 1
