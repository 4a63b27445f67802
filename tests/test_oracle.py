import cmath
import math

import numpy as np
import pytest

from qubit_dephasing import oracle
from qubit_dephasing.bath import DiscreteBath, Temperature, g_discrete
from qubit_dephasing.channel import QubitParams, check_qubit_state, evolve_single
from qubit_dephasing.errors import DimensionTooLarge, InvalidState
from qubit_dephasing.oracle import (
    FockMode,
    OracleSystem,
    bath_coupling_operator,
    bath_free_hamiltonian,
    build_hamiltonian,
    channel_discrepancy,
    dual_model_hamiltonian,
    exact_evolve,
    from_eigenbasis,
    lowering_operator,
    split_deviation,
    split_evolve,
    system_hamiltonian,
    thermal_bath_state,
    to_eigenbasis,
    trace_out_bath,
)
from qubit_dephasing.qmath import hermitian_eigenvalues, matrix_exponential

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

E_J = 1e10
OMEGA = 1e11
COUPLING = 1e10 * cmath.exp(1j * math.pi / 7.0)

PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def reference_system(n_max=8):
    return OracleSystem(E_J, (FockMode(OMEGA, COUPLING, n_max),))


def test_lowering_operator_entries():
    b = lowering_operator(4)
    assert b[0, 1] == 1.0
    assert b[1, 2] == pytest.approx(math.sqrt(2.0))
    assert b[2, 3] == pytest.approx(math.sqrt(3.0))
    # canonical commutator holds away from the truncation edge
    comm = b @ b.conj().T - b.conj().T @ b
    np.testing.assert_allclose(comm[:3, :3], np.eye(3), atol=1e-14)


def test_hamiltonian_without_modes_is_bare_qubit():
    system = OracleSystem(E_J, ())
    np.testing.assert_allclose(build_hamiltonian(system), -0.5 * E_J * SIGMA_X)
    np.testing.assert_allclose(dual_model_hamiltonian(system), -0.5 * E_J * SIGMA_Z)


def test_hamiltonian_is_exactly_hermitian():
    modes = (FockMode(OMEGA, COUPLING, 3), FockMode(2.0 * OMEGA, 0.5 * COUPLING, 2))
    h = build_hamiltonian(OracleSystem(E_J, modes))
    assert np.array_equal(h, h.conj().T)


def test_decoupled_spectrum_is_a_sum_of_ladders():
    system = OracleSystem(E_J, (FockMode(OMEGA, 0.0, 3),))
    got = hermitian_eigenvalues(build_hamiltonian(system))
    expect = np.sort(
        [s * 0.5 * E_J + n * OMEGA for s in (-1.0, 1.0) for n in range(4)]
    )
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-3)


def test_thermal_state_zero_temperature_is_vacuum():
    theta = thermal_bath_state(reference_system(4), Temperature.zero())
    expect = np.zeros((5, 5), dtype=complex)
    expect[0, 0] = 1.0
    np.testing.assert_allclose(theta, expect, atol=1e-15)


def test_thermal_state_geometric_occupancies():
    # beta * omega = ln 2 gives weights proportional to 2^-n
    system = OracleSystem(E_J, (FockMode(1.0, 0.1, 24),))
    theta = thermal_bath_state(system, Temperature.finite(math.log(2.0)))
    diag = np.diag(theta).real
    np.testing.assert_allclose(
        diag[1:] / diag[:-1], np.full(24, 0.5), rtol=1e-12
    )
    assert theta.trace() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(theta - np.diag(diag)).max() < 1e-15


def test_thermal_state_rejects_overflowing_tail():
    system = OracleSystem(E_J, (FockMode(1.0, 0.1, 3),))
    with pytest.raises(ValueError):
        thermal_bath_state(system, Temperature.finite(0.1))


@pytest.mark.parametrize("beta", [math.inf, 1e300], ids=["inf", "overflow"])
def test_thermal_state_rejects_non_finite_beta_omega(beta):
    # beta * omega = inf would make the vacuum weight exp(-inf * 0) = NaN
    with pytest.raises(ValueError, match="not finite"):
        thermal_bath_state(reference_system(), Temperature.finite(beta))


def test_trace_out_bath_undoes_product():
    rng = np.random.default_rng(21)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    theta = thermal_bath_state(reference_system(5), Temperature.zero())
    np.testing.assert_allclose(
        trace_out_bath(np.kron(rho, theta), 6), rho, atol=1e-14
    )


def test_eigenbasis_transform_diagonalizes_the_qubit():
    hs = system_hamiltonian(reference_system())
    got = to_eigenbasis(hs)
    np.testing.assert_allclose(got, np.diag([0.5 * E_J, -0.5 * E_J]), atol=1e-6)


def test_eigenbasis_round_trip():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(from_eigenbasis(to_eigenbasis(m)), m, atol=1e-14)


def test_exact_evolve_at_time_zero():
    rho = exact_evolve(reference_system(4), PLUS, Temperature.zero(), 0.0)
    np.testing.assert_allclose(rho, PLUS, atol=1e-12)


def test_exact_evolve_reduces_to_bare_rotation_without_coupling():
    system = OracleSystem(E_J, (FockMode(OMEGA, 0.0, 2),))
    t = 3.3e-11
    got = exact_evolve(system, PLUS, Temperature.zero(), t)
    u = matrix_exponential(-0.5 * E_J * SIGMA_X, t)
    np.testing.assert_allclose(got, u @ PLUS @ u.conj().T, atol=1e-12)


@pytest.mark.parametrize(
    "temp,rel",
    [(Temperature.zero(), 1e-8), (Temperature.finite(2e-11), 1e-5)],
    ids=["zero", "finite"],
)
def test_frozen_qubit_coherence_decays_at_the_bath_exponent(temp, rel):
    # E_J = 0: the computational-basis coherence contracts by exp(-4G)
    system = OracleSystem(0.0, (FockMode(OMEGA, 1e10, 8),))
    bath = DiscreteBath(((OMEGA, 1e10),))
    for t in (2e-12, 1.1e-11, 4e-11):
        rho_t = exact_evolve(system, PLUS, temp, t)
        expect = 0.5 * math.exp(-4.0 * g_discrete(bath, temp, t))
        assert abs(rho_t[0, 1]) == pytest.approx(expect, rel=rel)


def test_split_equals_exact_when_qubit_is_frozen():
    # E_J = 0 removes the only non-commuting term, so the split is exact
    system = OracleSystem(0.0, (FockMode(OMEGA, COUPLING, 6),))
    for t in (1e-12, 7e-12):
        gap = np.abs(
            split_evolve(system, PLUS, Temperature.zero(), t)
            - exact_evolve(system, PLUS, Temperature.zero(), t)
        ).max()
        assert gap < 1e-12


def test_split_deviation_shrinks_eightfold_per_halving():
    system = reference_system()
    for temp in (Temperature.zero(), Temperature.finite(2e-11)):
        coarse = split_deviation(system, temp, 2e-13, 6)
        fine = split_deviation(system, temp, 1e-13, 6)
        assert 6.0 <= coarse / fine <= 10.0


def test_channel_discrepancy_vanishes_without_coupling():
    system = OracleSystem(E_J, (FockMode(OMEGA, 0.0, 2),))
    assert channel_discrepancy(system, Temperature.zero(), 1e-12, 4) < 1e-12


@pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(2e-11)], ids=["zero", "finite"]
)
def test_channel_discrepancy_small_in_short_time_regime(temp):
    assert channel_discrepancy(reference_system(), temp, 1e-12, 8) < 1e-6


def test_channel_discrepancy_converged_in_fock_cutoff():
    temp = Temperature.finite(2e-11)
    at_8 = channel_discrepancy(reference_system(8), temp, 1e-12, 6)
    at_10 = channel_discrepancy(reference_system(10), temp, 1e-12, 6)
    assert abs(at_8 - at_10) < 1e-8


def test_dual_model_is_the_hadamard_rotation_of_the_primary():
    system = reference_system(3)
    h = build_hamiltonian(system)
    dual = dual_model_hamiltonian(system)
    rot = np.kron(HADAMARD, np.eye(system.bath_dim))
    conjugated = rot @ h @ rot
    scale = float(np.abs(dual).max())
    np.testing.assert_allclose(conjugated, dual, atol=1e-14 * scale)


def test_dual_model_is_isospectral():
    system = reference_system(3)
    w_primary = hermitian_eigenvalues(build_hamiltonian(system))
    w_dual = hermitian_eigenvalues(dual_model_hamiltonian(system))
    np.testing.assert_allclose(w_primary, w_dual, rtol=1e-10, atol=1.0)


def test_reduced_outputs_are_valid_states():
    rng = np.random.default_rng(23)
    # n_max=7 keeps the thermal tail at beta=2e-11 under the cutoff guard
    system = reference_system(7)
    temp = Temperature.finite(2e-11)
    for _ in range(25):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho0 = np.outer(v, v.conj())
        t = float(rng.uniform(0.0, 2e-12))
        check_qubit_state(exact_evolve(system, rho0, temp, t))
        check_qubit_state(split_evolve(system, rho0, temp, t))


def test_dimension_cap_enforced():
    with pytest.raises(DimensionTooLarge):
        OracleSystem(E_J, (FockMode(OMEGA, COUPLING, 600),))


def test_fock_mode_validation():
    with pytest.raises(ValueError):
        FockMode(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        FockMode(OMEGA, 1.0, 0)


def test_bath_operators_without_modes_are_scalars():
    assert bath_free_hamiltonian(()).shape == (1, 1)
    assert bath_coupling_operator(()).shape == (1, 1)


# -- stacked propagation -------------------------------------------------------

TWO_MODES = (FockMode(OMEGA, COUPLING, 7), FockMode(1.3 * OMEGA, 0.5 * COUPLING, 5))
SYSTEMS = pytest.mark.parametrize(
    "modes", [(FockMode(OMEGA, COUPLING, 8),), TWO_MODES], ids=["one_mode", "two_modes"]
)
TEMPERATURES = pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(2e-11)], ids=["zero", "finite"]
)


def random_pure_states(shape, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(*shape, 2)) + 1j * rng.normal(size=(*shape, 2))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    return vecs[..., :, None] * vecs[..., None, :].conj()


@SYSTEMS
@TEMPERATURES
@pytest.mark.parametrize("evolve", [split_evolve, exact_evolve])
def test_stacked_evolution_equals_per_state_calls(modes, temp, evolve):
    system = OracleSystem(E_J, modes)
    stack = random_pure_states((2, 3), 31)
    got = evolve(system, stack, temp, 3e-13)
    assert got.shape == (2, 3, 2, 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], evolve(system, stack[idx], temp, 3e-13))


def test_trace_out_bath_of_a_stack_equals_per_matrix_results():
    rng = np.random.default_rng(32)
    stack = rng.normal(size=(4, 3, 12, 12)) + 1j * rng.normal(size=(4, 3, 12, 12))
    got = trace_out_bath(stack, 6)
    assert got.shape == (4, 3, 2, 2)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(got[idx], trace_out_bath(stack[idx], 6))


@pytest.mark.parametrize("evolve", [split_evolve, exact_evolve])
@pytest.mark.parametrize(
    "shape", [(3, 2), (2, 3, 3), (0, 2, 2)], ids=["3x2", "stack_of_3x3", "empty"]
)
def test_evolution_rejects_bad_state_shapes(evolve, shape):
    with pytest.raises(InvalidState):
        evolve(reference_system(2), np.zeros(shape, dtype=complex), Temperature.zero(), 1e-13)


@pytest.mark.parametrize("shape", [(10, 10), (3, 12, 10), (12,)])
def test_trace_out_bath_rejects_wrong_size_operators(shape):
    with pytest.raises(ValueError):
        trace_out_bath(np.zeros(shape, dtype=complex), 6)


def sampled_pure_states(samples, seed):
    # per-sample reference for the stacked sampling and measurements below
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        yield np.outer(vec, vec.conj())


def reference_split_deviation(system, temp, t, samples, seed=7):
    worst = 0.0
    for rho0 in sampled_pure_states(samples, seed):
        gap = np.abs(
            split_evolve(system, rho0, temp, t) - exact_evolve(system, rho0, temp, t)
        ).max()
        worst = max(worst, float(gap))
    return worst


def reference_channel_discrepancy(system, temp, t, samples, seed=7):
    bath = DiscreteBath(tuple((m.omega, m.g) for m in system.modes))
    g_value = g_discrete(bath, temp, t)
    params = QubitParams(e_j=system.e_j)
    worst = 0.0
    for rho0 in sampled_pure_states(samples, seed):
        via_split = to_eigenbasis(split_evolve(system, rho0, temp, t))
        via_channel = evolve_single(to_eigenbasis(rho0), params, g_value, t)
        worst = max(worst, float(np.abs(via_split - via_channel).max()))
    return worst


@SYSTEMS
@TEMPERATURES
def test_stacked_measurements_equal_the_per_sample_loops(modes, temp):
    system = OracleSystem(E_J, modes)
    for t, samples, seed in ((4e-13, 6, 7), (1e-13, 4, 11), (2e-12, 8, 3)):
        assert split_deviation(system, temp, t, samples, seed) == (
            reference_split_deviation(system, temp, t, samples, seed)
        )
        assert channel_discrepancy(system, temp, t, samples, seed) == (
            reference_channel_discrepancy(system, temp, t, samples, seed)
        )


@pytest.fixture
def oracle_counts(monkeypatch):
    counts = {"matrix_exponential": 0, "thermal_bath_state": 0}
    for name in counts:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return counts


@pytest.mark.parametrize(
    "measure,exponentials,thermal_states",
    [(split_deviation, 3, 2), (channel_discrepancy, 2, 1)],
    ids=["split_deviation", "channel_discrepancy"],
)
@pytest.mark.parametrize("samples", [4, 8])
def test_each_measurement_builds_its_propagators_once(
    oracle_counts, measure, exponentials, thermal_states, samples
):
    measure(reference_system(4), Temperature.finite(5e-11), 2e-13, samples)
    assert oracle_counts == {
        "matrix_exponential": exponentials,
        "thermal_bath_state": thermal_states,
    }
