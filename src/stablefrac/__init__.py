"""Exact-arithmetic toolkit for many-to-one matching markets.

Stable matchings, the fractional matching polytopes, the strong stability
condition, ordered convex decompositions, rotations, connected-set hulls,
and a brute-force oracle harness that cross-validates all of it.

Each module lists its public names in its own ``__all__``; the package
re-exports them, and its ``__all__`` is those six lists joined.
"""

from .model import *
from .stability import *
from .polytope import *
from .strong_stability import *
from .rotations import *
from .hulls import *

__version__ = "0.1.0"

__all__ = (model.__all__ + stability.__all__ + polytope.__all__
           + strong_stability.__all__ + rotations.__all__ + hulls.__all__)
