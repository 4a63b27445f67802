"""Short-time dephasing and disentanglement of two qubits in bosonic baths.

The library models a pair of qubits, each coupled to its own bath of
harmonic oscillators through a pure-dephasing interaction. It provides
the decoherence exponent for discrete and Ohmic baths, the resulting
single-qubit channel and its two-qubit product form, concurrence of the
evolved states, and a brute-force propagator that validates the channel
against exact dynamics on truncated Fock spaces.

The package re-exports every name in each module's ``__all__``.
"""

from . import bath, channel, entanglement, errors, oracle, qmath
from .bath import *
from .channel import *
from .entanglement import *
from .errors import *
from .oracle import *
from .qmath import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bath, channel, entanglement, errors, oracle, qmath)
    for name in module.__all__
] + ["__version__"]
