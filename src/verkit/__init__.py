"""Exact sl2 Verlinde lattice counts on trivalent graphs, the stable-graph
stratification combinatorics, and the graded algebra checks built on them.

Each module's __all__ is its public surface; the package republishes them
all."""

# the verlinde module is taken as _verlinde before the star import below
# rebinds the name verlinde to the function, which then shadows the module
from . import errors, graphs, lattice, moduli, semigroup, verlinde as _verlinde
from .errors import *
from .graphs import *
from .lattice import *
from .moduli import *
from .semigroup import *
from .verlinde import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + graphs.__all__ + lattice.__all__
           + moduli.__all__ + semigroup.__all__ + _verlinde.__all__)
