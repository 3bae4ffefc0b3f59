"""Exact symbolic calculus of derivations on polynomial quotient rings,
instantiated on the coordinate ring of SL2."""

from . import derivations, poly, quotient, sl2
from .derivations import *
from .poly import *
from .quotient import *
from .sl2 import *

__all__ = sorted(derivations.__all__ + poly.__all__ + quotient.__all__ + sl2.__all__)
