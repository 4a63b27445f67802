import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- propagator and spectrum builds -------------------------------------------


def reference_evolve(system, rho0, temp, t, split):
    # independent dense construction: every propagator from a fresh
    # matrix_exponential, every joint state from np.kron
    if split:
        outer = np.kron(
            matrix_exponential(system_hamiltonian(system), 0.5 * t),
            np.eye(system.bath_dim, dtype=complex),
        )
        interaction = np.kron(
            np.eye(2, dtype=complex), bath_free_hamiltonian(system.modes)
        ) + np.kron(SIGMA_Z, bath_coupling_operator(system.modes))
        u = outer @ matrix_exponential(interaction, t) @ outer
    else:
        u = matrix_exponential(build_hamiltonian(system), t)
    theta = thermal_bath_state(system, temp)
    out = np.empty(rho0.shape, dtype=complex)
    for idx in np.ndindex(rho0.shape[:-2]):
        joint = u @ np.kron(rho0[idx], theta) @ u.conj().T
        out[idx] = trace_out_bath(joint, system.bath_dim)
    return out


@SYSTEMS
@TEMPERATURES
@pytest.mark.parametrize("split", [True, False], ids=["split", "exact"])
def test_evolution_matches_the_dense_reference(modes, temp, split):
    # the reduced map sums in another order than the dense construction, so
    # the two agree to rounding (every entry is at most 1); a state alone and
    # in a stack, and a warm system and a cold one, still agree bit for bit
    system = OracleSystem(E_J, modes)
    evolve = split_evolve if split else exact_evolve
    stack = random_pure_states((3,), 33)
    cold = {}
    for warm in (False, True):  # the second pass runs on the warm system
        for t in (0.0, 1e-13, 3e-13, 2e-12):
            got = evolve(system, stack, temp, t)
            expect = reference_evolve(system, stack, temp, t, split)
            np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)
            assert np.array_equal(evolve(system, stack[1], temp, t), got[1])
            if warm:
                assert np.array_equal(got, cold[t])
            else:
                cold[t] = got


def bloch_matrix(r, theta, phi):
    # (1 + r n.sigma)/2: pure on the sphere, mixed inside it
    return 0.5 * np.array(
        [
            [1.0 + r * math.cos(theta), r * math.sin(theta) * cmath.exp(-1j * phi)],
            [r * math.sin(theta) * cmath.exp(1j * phi), 1.0 - r * math.cos(theta)],
        ]
    )


qubit_states = st.builds(
    bloch_matrix,
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
# built once, so that most examples run on warm systems
PROPERTY_SYSTEMS = (
    OracleSystem(E_J, (FockMode(OMEGA, COUPLING, 8),)),
    OracleSystem(E_J, TWO_MODES),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(qubit_states, min_size=1, max_size=5),
    st.floats(0.0, 2e-12),
    st.sampled_from(PROPERTY_SYSTEMS),
    st.sampled_from([Temperature.zero(), Temperature.finite(2e-11)]),
)
def test_reduced_map_matches_the_dense_reference(states, t, system, temp):
    stack = np.array(states)
    for split, evolve in ((True, split_evolve), (False, exact_evolve)):
        got = evolve(system, stack, temp, t)
        expect = reference_evolve(system, stack, temp, t, split)
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)
        check_qubit_state(got)


@pytest.fixture
def oracle_counts(monkeypatch):
    counts = {"hermitian_spectrum": 0, "spectral_propagator": 0, "thermal_bath_state": 0}
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
    # on a fresh system every propagator needs its own spectrum as well
    measure(reference_system(4), Temperature.finite(5e-11), 2e-13, samples)
    assert oracle_counts == {
        "hermitian_spectrum": exponentials,
        "spectral_propagator": exponentials,
        "thermal_bath_state": thermal_states,
    }


def halving_grid_pattern(system, samples):
    # what one oracle-check run (and one benchmark op) asks of one system
    temp = Temperature.finite(5e-11)
    times = [4e-13 / 2.0**k for k in range(4)]
    for t in times:
        split_deviation(system, temp, t, samples)
    for t in times[:3]:
        channel_discrepancy(system, temp, t, samples)


@pytest.mark.parametrize("samples", [4, 8])
def test_each_system_diagonalizes_its_hamiltonians_once(oracle_counts, samples):
    system = reference_system(4)
    halving_grid_pattern(system, samples)
    # spectra: full, qubit and interaction Hamiltonian; propagators: two for
    # each of the 7 split steps and one for each of the 4 exact steps
    assert oracle_counts == {
        "hermitian_spectrum": 3,
        "spectral_propagator": 18,
        "thermal_bath_state": 11,
    }
    halving_grid_pattern(system, samples)
    assert oracle_counts["hermitian_spectrum"] == 3
    # an equal but new system keeps no spectra from the first: no global cache
    twin = reference_system(4)
    assert twin == system
    halving_grid_pattern(twin, samples)
    assert oracle_counts["hermitian_spectrum"] == 6


def test_kept_spectra_are_read_only():
    system = reference_system(4)
    exact_evolve(system, PLUS, Temperature.zero(), 1e-13)
    split_evolve(system, PLUS, Temperature.zero(), 1e-13)
    for spectrum in (
        system._full_spectrum,
        system._qubit_spectrum,
        system._interaction_spectrum,
    ):
        for part in spectrum:
            with pytest.raises(ValueError):
                part[0] = 0.0


EVOLVES = pytest.mark.parametrize("evolve", [split_evolve, exact_evolve])


@EVOLVES
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "t,message",
    [
        (math.nan, "t must be finite"),
        (math.inf, "t must be finite"),
        (-1e-13, "t must be nonnegative"),
        (-math.inf, "t must be nonnegative"),
    ],
    ids=["nan", "inf", "negative", "minus_inf"],
)
def test_evolution_rejects_bad_times(evolve, warm, t, message):
    system = reference_system(4)
    if warm:
        evolve(system, PLUS, Temperature.zero(), 1e-13)
    with pytest.raises(ValueError, match=message):
        evolve(system, PLUS, Temperature.zero(), t)


@EVOLVES
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "system",
    [
        OracleSystem(math.nan, (FockMode(OMEGA, COUPLING, 4),)),
        OracleSystem(math.inf, (FockMode(OMEGA, COUPLING, 4),)),
        OracleSystem(E_J, (FockMode(OMEGA, complex(math.nan, 0.0), 4),)),
        OracleSystem(E_J, (FockMode(OMEGA, math.inf, 4),)),
    ],
    ids=["nan_e_j", "inf_e_j", "nan_g", "inf_g"],
)
def test_non_finite_systems_fail_on_every_call(evolve, system):
    for _ in range(2):  # a failed spectrum is not kept
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            evolve(system, PLUS, Temperature.zero(), 1e-13)
