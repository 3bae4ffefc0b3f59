"""Fraction-free integer elimination (Bareiss, Math. Comp. 22, 1968),
stated once for the package, beside `_add_term`, its term accumulation."""

import math

__all__ = ["Echelon", "rank"]


def _add_term(terms: dict, key, coef) -> None:
    """Add coef into terms[key], dropping the key when the sum cancels."""
    s = terms.get(key, 0) + coef
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


class Echelon:
    """Incremental row echelon form of integer vectors: maps from orderable
    keys to nonzero ints.  `rows` maps each row's pivot, its largest key,
    to the row; an entry at a pivot is cancelled as row <- a*row -
    b*pivot_row with a, b coprime.  Tagging input i with a key of its own
    below every real key, entry 1, makes each row carry its combination."""

    def __init__(self):
        self.rows: dict = {}

    def insert(self, vec: dict):
        """Reduce vec, a map the caller gives up, by the rows; store the rest
        and return its pivot, or return None when vec is in the span."""
        while vec:
            pivot = max(vec)
            if pivot not in self.rows:
                self.rows[pivot] = vec
                return pivot
            rvec = self.rows[pivot]
            g = math.gcd(rvec[pivot], vec[pivot])
            a, b = rvec[pivot] // g, vec[pivot] // g
            if a != 1:
                vec = {m: a * c for m, c in vec.items()}
            for m, c in rvec.items():
                _add_term(vec, m, -b * c)
        return None


def rank(rows) -> int:
    """Rank of integer vectors: maps the caller gives up."""
    echelon = Echelon()
    return sum(echelon.insert(row) is not None for row in rows)
