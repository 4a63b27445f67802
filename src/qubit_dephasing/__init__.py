"""Short-time dephasing and disentanglement of two qubits in bosonic baths.

The library models a pair of qubits, each coupled to its own bath of
harmonic oscillators through a pure-dephasing interaction. It provides
the decoherence exponent for discrete and Ohmic baths, the resulting
single-qubit channel and its two-qubit product form, concurrence of the
evolved states, and a brute-force propagator that validates the channel
against exact dynamics on truncated Fock spaces.
"""

from .bath import (
    DiscreteBath,
    OhmicBath,
    Temperature,
    default_quadrature,
    g_discrete,
    g_ohmic,
    g_ohmic_closed,
    suppression_factor,
)
from .channel import (
    QubitParams,
    check_pair_state,
    check_qubit_state,
    cptp_check,
    deviation,
    evolve_pair,
    evolve_single,
    lambda_norm,
    max_decoherence_analytic,
    max_decoherence_numeric,
)
from .entanglement import (
    analytic_bell_concurrence,
    analytic_bell_state,
    concurrence,
    family_concurrence,
    family_concurrence_rows,
    initial_state,
    spin_flip,
)
from .errors import (
    ConfigError,
    DephasingError,
    DimensionTooLarge,
    InvalidState,
    IoError,
    NoConvergence,
    NonHermitian,
    ToleranceNotMet,
)
from .oracle import (
    FockMode,
    OracleSystem,
    build_hamiltonian,
    channel_discrepancy,
    dual_model_hamiltonian,
    exact_evolve,
    from_eigenbasis,
    split_deviation,
    split_evolve,
    thermal_bath_state,
    to_eigenbasis,
    trace_out_bath,
)
from .qmath import (
    QuadratureSpec,
    adaptive_quadrature,
    general_eigenvalues,
    hermitian_eigenvalues,
    hermitian_spectrum,
    matrix_exponential,
    semi_infinite_cutoff,
    spectral_propagator,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DephasingError",
    "DimensionTooLarge",
    "DiscreteBath",
    "FockMode",
    "InvalidState",
    "IoError",
    "NoConvergence",
    "NonHermitian",
    "OhmicBath",
    "OracleSystem",
    "QuadratureSpec",
    "QubitParams",
    "Temperature",
    "ToleranceNotMet",
    "adaptive_quadrature",
    "analytic_bell_concurrence",
    "analytic_bell_state",
    "build_hamiltonian",
    "channel_discrepancy",
    "check_pair_state",
    "check_qubit_state",
    "concurrence",
    "cptp_check",
    "default_quadrature",
    "deviation",
    "dual_model_hamiltonian",
    "evolve_pair",
    "evolve_single",
    "exact_evolve",
    "family_concurrence",
    "family_concurrence_rows",
    "from_eigenbasis",
    "g_discrete",
    "g_ohmic",
    "g_ohmic_closed",
    "general_eigenvalues",
    "hermitian_eigenvalues",
    "hermitian_spectrum",
    "initial_state",
    "lambda_norm",
    "matrix_exponential",
    "max_decoherence_analytic",
    "max_decoherence_numeric",
    "semi_infinite_cutoff",
    "spectral_propagator",
    "spin_flip",
    "split_deviation",
    "split_evolve",
    "suppression_factor",
    "thermal_bath_state",
    "to_eigenbasis",
    "trace_out_bath",
    "__version__",
]
