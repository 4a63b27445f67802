"""The package's top-level names: each module's ``__all__``, re-exported."""

import collections

import qubit_dephasing
from qubit_dephasing import bath, channel, entanglement, errors, oracle, qmath

MODULES = (bath, channel, entanglement, errors, oracle, qmath)

# the names the package exported when __init__ listed them by hand, less
# default_quadrature and semi_infinite_cutoff, removed with the quadrature knob
LISTED_BY_HAND = {
    bath: ["DiscreteBath", "OhmicBath", "Temperature", "g_discrete", "g_ohmic",
           "g_ohmic_closed", "suppression_factor"],
    channel: ["QubitParams", "check_pair_state", "check_qubit_state", "cptp_check",
              "deviation", "evolve_pair", "evolve_single", "lambda_norm",
              "max_decoherence_analytic", "max_decoherence_numeric"],
    entanglement: ["analytic_bell_concurrence", "analytic_bell_state", "concurrence",
                   "family_concurrence", "family_concurrence_rows", "initial_state",
                   "spin_flip"],
    errors: ["ConfigError", "DephasingError", "DimensionTooLarge", "InvalidState",
             "IoError", "NoConvergence", "NonHermitian", "ToleranceNotMet"],
    oracle: ["FockMode", "OracleSystem", "build_hamiltonian", "channel_discrepancy",
             "dual_model_hamiltonian", "exact_evolve", "from_eigenbasis",
             "split_deviation", "split_evolve", "thermal_bath_state", "to_eigenbasis",
             "trace_out_bath"],
    qmath: ["QuadratureSpec", "adaptive_quadrature", "general_eigenvalues",
            "hermitian_eigenvalues", "hermitian_spectrum", "matrix_exponential",
            "spectral_propagator"],
}


def test_the_package_exports_each_module_all_and_the_version():
    names = [name for module in MODULES for name in module.__all__]
    assert qubit_dephasing.__all__ == names + ["__version__"]
    for name in qubit_dephasing.__all__:
        assert hasattr(qubit_dephasing, name)


def test_no_name_is_public_in_two_modules():
    counts = collections.Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_each_public_name_is_defined_in_its_own_module():
    for module in MODULES:
        for name in module.__all__:
            assert name in vars(module), (module.__name__, name)
            value = vars(module)[name]
            if callable(value):  # classes and functions, not constants
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_every_name_listed_by_hand_resolves_to_the_same_object():
    assert sum(len(names) for names in LISTED_BY_HAND.values()) == 51
    for module, names in LISTED_BY_HAND.items():
        for name in names:
            assert name in qubit_dephasing.__all__
            assert getattr(qubit_dephasing, name) is getattr(module, name)
    assert qubit_dephasing.__version__ == "0.1.0"
