"""Entanglement quantities and optimal-state searches for n-qubit pure states.

The package computes reduced density matrices, bipartite purities, and
the potential of multipartite entanglement (the mean purity over all
balanced bipartitions) in several algebraically equivalent forms, checks
states for the perfect maximally-multipartite-entangled property, and
searches the landscape of uniform states by exhaustive sign sweeps or
Metropolis annealing.  A command line front end (`mmeskit`) exposes the
same operations on JSON state files.
"""

from . import bipartite, bitspace, cli, mmes, potential, search, states
from .bitspace import *
from .states import *
from .bipartite import *
from .potential import *
from .mmes import *
from .search import *
from .cli import *

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package exports all of them.
__all__ = ["__version__"] + [
    name
    for module in (bitspace, states, bipartite, potential, mmes, search, cli)
    for name in module.__all__
]
