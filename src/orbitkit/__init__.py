"""orbitkit: exact-arithmetic Lie-theory checks.

Subpackages cover integer partitions, root systems, nilpotent-orbit
counts, the locally-nilpotent-derivation calculus on C[SL2], and the
reductive-embedding case analysis, plus a CLI that replays the whole
verification suite.
"""

__version__ = "0.1.0"


class RootSystemConsistencyError(RuntimeError):
    """A tabulated value disagrees with its recomputation, or a check that
    must always hold failed; indicates a bug, not bad input.  embedcheck
    exports the same class as InconsistencyError."""
