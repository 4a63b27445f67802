import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubit_dephasing import oracle
from qubit_dephasing.bath import DiscreteBath, Temperature, g_discrete
from qubit_dephasing.channel import QubitParams, check_qubit_state, evolve_single
from qubit_dephasing.errors import (
    DimensionTooLarge,
    InvalidState,
    NoConvergence,
    ToleranceNotMet,
)
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
from qubit_dephasing.qmath import (
    hermitian_eigenvalues,
    matrix_exponential,
    spectral_propagator,
)

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


# At E_J = 0 the coupling commutes with the Hamiltonian: the split step is
# exact and so is the channel, with no t^3 window. Split and exact go through
# different eigh calls, so both gaps are rounding, not 0.0. Largest measured
# over these cases, 10 log-spaced t in [1e-13, 1e-10] s and seeds 0-4 at 16
# samples: split 8.9e-16, channel 1.4e-15; the bound leaves a margin of 7.
# The cutoffs keep the Fock truncation below rounding at beta = 5e-11 s.
SOLVABLE_LIMIT_ATOL = 1e-14


@pytest.mark.parametrize(
    "modes",
    [
        (FockMode(OMEGA, 3e10, 14),),
        (FockMode(OMEGA, COUPLING, 9), FockMode(1.3 * OMEGA, 0.5 * COUPLING, 7)),
    ],
    ids=["one_mode", "two_modes"],
)
@pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(5e-11)], ids=["zero", "finite"]
)
def test_split_and_channel_are_exact_in_the_solvable_limit(modes, temp):
    system = OracleSystem(0.0, modes)
    for t in (1e-12, 1e-11, 1e-10):
        assert split_deviation(system, temp, t, 8) < SOLVABLE_LIMIT_ATOL
        assert channel_discrepancy(system, temp, t, 8) < SOLVABLE_LIMIT_ATOL


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
    # the cap is on the bath dimension B, the largest matrix an evolve builds
    with pytest.raises(DimensionTooLarge, match="bath dimension 1025 exceeds cap 1024"):
        OracleSystem(E_J, (FockMode(OMEGA, COUPLING, 1024),))
    assert OracleSystem(E_J, (FockMode(OMEGA, COUPLING, 600),)).total_dim == 1202


def test_fock_mode_validation():
    with pytest.raises(ValueError):
        FockMode(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        FockMode(OMEGA, 1.0, 0)
    with pytest.raises(ValueError, match="^omega must be finite$"):
        FockMode(math.inf, 1e10, 2)
    for g in (math.inf, math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="^g must be finite$"):
            FockMode(OMEGA, g, 2)
    # a ladder entry past float range: the largest generator entries, omega
    # sqrt(n_max)**2 and |g| sqrt(n_max), computed as the generators compute
    # them; sqrt(8)**2 rounds above 8, so omega = max / 8 overflows the
    # diagonal at n_max = 8
    diagonal = r"^omega \* n_max must be finite$"
    coupling = r"^\|g\| \* sqrt\(n_max\) must be finite$"
    for omega in (1e308, sys.float_info.max / 8.0):
        with pytest.raises(ValueError, match=diagonal):
            FockMode(omega, 1.0, 8)
    for g in (7e307, complex(7e307, 7e307), complex(1.5e308, 1.5e308)):
        with pytest.raises(ValueError, match=coupling):
            FockMode(OMEGA, g, 8)
    for mode in (FockMode(2e307, 1.0, 8), FockMode(OMEGA, complex(3e307, 3e307), 8)):
        assert np.isfinite(bath_free_hamiltonian((mode,))).all()
        assert np.isfinite(bath_coupling_operator((mode,))).all()


def test_bath_operators_without_modes_are_scalars():
    assert bath_free_hamiltonian(()).shape == (1, 1)
    assert bath_coupling_operator(()).shape == (1, 1)


# -- stacked propagation -------------------------------------------------------

TWO_MODES = (FockMode(OMEGA, COUPLING, 7), FockMode(1.3 * OMEGA, 0.5 * COUPLING, 5))
# levels 6, 5 and 6 (B = 180), fast enough for these cutoffs at beta = 2e-11 s;
# with no mode and with three, the split step's product over modes is empty
# and runs past two factors
THREE_MODES = (
    FockMode(2.0 * OMEGA, COUPLING, 5),
    FockMode(2.6 * OMEGA, 0.5 * COUPLING, 4),
    FockMode(1.4 * OMEGA, 0.8 * COUPLING, 5),
)
SYSTEMS = pytest.mark.parametrize(
    "modes",
    [(FockMode(OMEGA, COUPLING, 8),), TWO_MODES, (), THREE_MODES],
    ids=["one_mode", "two_modes", "no_modes", "three_modes"],
)
TEMPERATURES_LIST = [Temperature.zero(), Temperature.finite(2e-11)]
TEMPERATURES = pytest.mark.parametrize(
    "temp", TEMPERATURES_LIST, ids=["zero", "finite"]
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
    g_value = 0.0  # a bath with no modes does not decohere
    if system.modes:
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


@pytest.mark.parametrize("samples,seed", [(1, 0), (4, 11), (8, 7), (33, 3)])
def test_sampled_states_equal_the_per_sample_loop(samples, seed):
    got = oracle._sample_pure_states(samples, seed)
    assert np.array_equal(got, np.array(list(sampled_pure_states(samples, seed))))


def public_measurements(system, temp, t, samples, seed):
    # split_deviation and channel_discrepancy composed from the public evolves
    rho0 = oracle._sample_pure_states(samples, seed)
    deviation = np.abs(
        split_evolve(system, rho0, temp, t) - exact_evolve(system, rho0, temp, t)
    ).max()
    g_value = 0.0
    if system.modes:
        bath = DiscreteBath(tuple((m.omega, m.g) for m in system.modes))
        g_value = g_discrete(bath, temp, t)
    via_split = to_eigenbasis(split_evolve(system, rho0, temp, t))
    params = QubitParams(system.e_j)
    via_channel = evolve_single(to_eigenbasis(rho0), params, g_value, t)
    return float(deviation), float(np.abs(via_split - via_channel).max())


@SYSTEMS
@TEMPERATURES
def test_measurements_equal_the_public_composition(modes, temp):
    # the measurements validate their stack once and call the evolves'
    # kernels; on a fresh system (cold) or one whose maps the public
    # evolves built (warm), they give the composition's bits
    for t, samples, seed in ((4e-13, 6, 7), (1e-13, 4, 11), (2e-12, 8, 3)):
        cold, warm = OracleSystem(E_J, modes), OracleSystem(E_J, modes)
        expect = public_measurements(warm, temp, t, samples, seed)
        for system in (cold, warm):
            got = (
                split_deviation(system, temp, t, samples, seed),
                channel_discrepancy(system, temp, t, samples, seed),
            )
            assert got == expect


@pytest.mark.parametrize("measure", [split_deviation, channel_discrepancy])
def test_a_sample_stack_is_checked_when_drawn_and_not_by_the_measurements(
    monkeypatch, measure
):
    checked = []
    original = oracle.check_qubit_state

    def counted(rho):
        checked.append(rho)
        return original(rho)

    monkeypatch.setattr(oracle, "check_qubit_state", counted)
    oracle._sample_pure_states.cache_clear()
    system = reference_system(4)
    measure(system, Temperature.zero(), 2e-13, 6)  # the draw checks its stack
    assert len(checked) == 1
    assert checked[0] is oracle._sample_pure_states(6, 7)
    checked.clear()
    for t in (2e-13, 1e-13):  # warm, on a kept map and on a new one
        measure(system, Temperature.zero(), t, 6)
    assert checked == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_sampled_stacks_pass_the_state_check(samples, seed):
    # the draw checks each stack it keeps; the measurements check none
    states = oracle._sample_pure_states(samples, seed)
    assert check_qubit_state(states) is states


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


def kron_thermal_state(system, temp):
    # the per-mode construction: a dense Gibbs matrix per mode, joined by kron
    theta = np.eye(1, dtype=complex)
    for mode in system.modes:
        if temp.beta is None:
            gibbs = np.zeros((mode.levels, mode.levels), dtype=complex)
            gibbs[0, 0] = 1.0
        else:
            weights = np.exp(-temp.beta * mode.omega * np.arange(mode.levels))
            gibbs = np.diag(weights / weights.sum()).astype(complex)
        theta = np.kron(theta, gibbs)
    return theta


@SYSTEMS
@TEMPERATURES
def test_thermal_state_equals_the_per_mode_kron_product(modes, temp):
    system = OracleSystem(E_J, modes)
    expect = kron_thermal_state(system, temp)
    assert np.array_equal(thermal_bath_state(system, temp), expect)
    assert np.array_equal(oracle._bath_weights(system, temp), np.diag(expect).real)


def interaction_generator(modes):
    # the split step's bath-plus-coupling generator on the full space
    return np.kron(np.eye(2, dtype=complex), bath_free_hamiltonian(modes)) + np.kron(
        SIGMA_Z, bath_coupling_operator(modes)
    )


def lift(modes, index, op):
    # one mode's operator on the bath space, identities on the other modes
    out = np.eye(1, dtype=complex)
    for k, mode in enumerate(modes):
        out = np.kron(out, op if k == index else np.eye(mode.levels, dtype=complex))
    return out


def kron_bath_operators(modes):
    # the dense construction: each mode's term lifted by kron, then summed
    dim = math.prod(mode.levels for mode in modes)
    free = np.zeros((dim, dim), dtype=complex)
    coupling = np.zeros((dim, dim), dtype=complex)
    for k, mode in enumerate(modes):
        b = lowering_operator(mode.levels)
        free += mode.omega * lift(modes, k, b.conj().T @ b)
        coupling += lift(modes, k, np.conj(mode.g) * b + mode.g * b.conj().T)
    return free, coupling


@SYSTEMS
def test_bath_operators_equal_the_kron_construction(modes):
    # built mode by mode from diagonals and one write per mode, bit for bit
    free, coupling = kron_bath_operators(modes)
    assert np.array_equal(bath_free_hamiltonian(modes), free)
    assert np.array_equal(bath_coupling_operator(modes), coupling)


def bath_parity(modes):
    # (-1)^(sum_k n_k) as the product of the lifted one-mode parities
    parity = np.eye(math.prod(mode.levels for mode in modes), dtype=complex)
    for k, mode in enumerate(modes):
        parity = parity @ lift(modes, k, np.diag((-1.0) ** np.arange(mode.levels)))
    return parity


def gauged(modes):
    # the same modes with each coupling g_k replaced by |g_k|
    return tuple(FockMode(mode.omega, abs(mode.g), mode.n_max) for mode in modes)


def gauge_phases(modes):
    # diagonal of D = prod_k exp(i arg(g_k) n_k), which takes the generators
    # with |g_k| to those with g_k: D V(|g|) D^dag = V(g)
    phases = np.ones(1, dtype=complex)
    for mode in modes:
        ladder = np.exp(1j * cmath.phase(mode.g) * np.arange(mode.levels))
        phases = np.outer(phases, ladder).ravel()
    return phases


def parity_blocks(modes):
    # H_B + V -+ (E_J/2) Pi: the Hamiltonian on the sectors P = +1 and -1
    h = bath_free_hamiltonian(modes) + bath_coupling_operator(modes)
    tunneling = 0.5 * E_J * bath_parity(modes)
    return h - tunneling, h + tunneling


def sector_basis(modes):
    # columns |0,b> + s pi_b |1,b> for s = +1, then -1; over sqrt(2) they are
    # unitary, and with entries +-1 every product with them is exact
    b = math.prod(mode.levels for mode in modes)
    identity, parity = np.eye(b, dtype=complex), bath_parity(modes)
    return np.block([[identity, identity], [parity, -parity]])


@SYSTEMS
def test_the_hamiltonian_keeps_the_qubit_bath_parity(modes):
    system = OracleSystem(E_J, modes)
    h = build_hamiltonian(system)
    parity = np.kron(SIGMA_X, bath_parity(modes))
    assert np.array_equal(parity @ h @ parity, h)


@SYSTEMS
def test_the_sector_basis_block_diagonalizes_the_hamiltonian(modes):
    system = OracleSystem(E_J, modes)
    b = system.bath_dim
    sectors = sector_basis(modes)
    got = sectors.conj().T @ build_hamiltonian(system) @ sectors / 2.0
    plus, minus = parity_blocks(modes)
    assert np.array_equal(got[:b, :b], plus) and np.array_equal(got[b:, b:], minus)
    assert not got[:b, b:].any() and not got[b:, :b].any()
    if not modes:  # B = 1: the blocks are the qubit's levels -+E_J/2
        assert plus[0, 0] == -0.5 * E_J and minus[0, 0] == 0.5 * E_J


@SYSTEMS
def test_the_block_spectra_are_the_hamiltonian_spectrum(modes):
    system = OracleSystem(E_J, modes)
    expect = np.linalg.eigvalsh(build_hamiltonian(system))
    got = np.sort(np.concatenate([w for w, _ in system._block_spectra]))
    scale = float(np.abs(expect).max())
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12 * scale)


@SYSTEMS
def test_diagonalized_generators_are_the_hamiltonian_and_the_split_blocks(
    monkeypatch, modes
):
    # the exact step diagonalizes the Hamiltonian's two B x B parity blocks;
    # the split blocks H_B +- V are sums of one-mode terms h_k +- v_k, and
    # only those (n_max + 1)-level terms are diagonalized for the split step,
    # one per mode, since h_k - v_k = P (h_k + v_k) P with P = diag((-1)^n).
    # Every bath generator is the real one with |g_k|, which the gauge D
    # takes to the one with g_k
    system = OracleSystem(E_J, modes)
    b = system.bath_dim
    generators = []
    original = oracle.hermitian_spectrum

    def recorded(m):
        generators.append(m)
        return original(m)

    monkeypatch.setattr(oracle, "hermitian_spectrum", recorded)
    exact_evolve(system, PLUS, Temperature.zero(), 1e-13)
    split_evolve(system, PLUS, Temperature.zero(), 1e-13)
    plus, minus, *per_mode, qubit = generators
    assert plus.dtype == minus.dtype == np.float64
    expect_plus, expect_minus = parity_blocks(gauged(modes))
    assert np.array_equal(plus, expect_plus) and np.array_equal(minus, expect_minus)
    d = gauge_phases(modes)
    for got, expect in zip((plus, minus), parity_blocks(modes)):
        scale = float(np.abs(expect).max())
        gauge = d[:, None] * got * d.conj()
        np.testing.assert_allclose(gauge, expect, rtol=0.0, atol=1e-15 * scale)
    assert np.array_equal(qubit, system_hamiltonian(system))
    assert len(per_mode) == len(modes)
    interaction = interaction_generator(gauged(modes))
    blocks = [np.zeros((b, b), dtype=complex) for _ in range(2)]
    for k, mode in enumerate(gauged(modes)):
        h = bath_free_hamiltonian((mode,))
        v = bath_coupling_operator((mode,))
        parity = np.diag((-1.0) ** np.arange(mode.levels))
        assert per_mode[k].dtype == np.float64
        assert np.array_equal(per_mode[k], h + v)
        assert np.array_equal(parity @ per_mode[k] @ parity, h - v)
        blocks[0] += lift(modes, k, per_mode[k])
        blocks[1] += lift(modes, k, parity @ per_mode[k] @ parity)
    assert np.array_equal(blocks[0], interaction[:b, :b])
    assert np.array_equal(blocks[1], interaction[b:, b:])
    assert not interaction[:b, b:].any() and not interaction[b:, :b].any()


def mode_propagators(system, t):
    # each mode's one-mode propagators u_+ and u_- = P u_+ P from its one
    # kept spectrum of h + v
    for mode, (w, v) in zip(system.modes, system._mode_spectra):
        parity = (-1.0) ** np.arange(mode.levels)
        minus = (w, v * parity[:, None])
        yield spectral_propagator((w, v), t), spectral_propagator(minus, t)


@pytest.mark.parametrize(
    "modes,block_atol",
    [((FockMode(OMEGA, COUPLING, 8),), 1e-15), (TWO_MODES, 1e-14)],
    ids=["one_mode", "two_modes"],
)
def test_column_and_block_propagators_match_the_dense_exponential(modes, block_atol):
    # The sector-basis assembly of the two gauged parity-block propagators,
    # and the kron of the one-mode propagators, come from other eigh calls
    # than the dense exponential's, and each eigh-built propagator is unitary
    # only to about 2e-15. Largest gaps measured here: parity assembly with
    # the gauge 2.2e-15 (one mode) and 3.7e-15 (two); split blocks, against
    # the dense exponential with |g_k|, 0 and 3.3e-15
    system = OracleSystem(E_J, modes)
    b = system.bath_dim
    sectors = sector_basis(modes)
    zero = np.zeros((b, b), dtype=complex)
    d = gauge_phases(modes)
    for t in (0.0, 1e-13, 3e-13, 2e-12):
        blocks = [spectral_propagator(s, t) for s in system._block_spectra]
        blocks = [d[:, None] * u * d.conj() for u in blocks]  # D U D^dag
        assembled = sectors @ np.block([[blocks[0], zero], [zero, blocks[1]]])
        assembled = assembled @ sectors.conj().T / 2.0
        full = matrix_exponential(build_hamiltonian(system), t)
        np.testing.assert_allclose(assembled, full, rtol=0.0, atol=1e-14)
        dense = matrix_exponential(interaction_generator(gauged(modes)), t)
        for p in range(2):
            block = np.eye(1, dtype=complex)
            for pair in mode_propagators(system, t):
                block = np.kron(block, pair[p])
            expect = dense[p * b : (p + 1) * b, p * b : (p + 1) * b]
            np.testing.assert_allclose(block, expect, rtol=0.0, atol=block_atol)


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


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


fock_modes = st.builds(
    lambda omega, ratio, angle, n_max: FockMode(
        omega, ratio * omega * cmath.exp(1j * angle), n_max
    ),
    log_uniform(1e10, 1e12),
    log_uniform(1e-2, 1.0),
    st.floats(-math.pi, math.pi),
    st.integers(1, 12),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(fock_modes, min_size=1, max_size=2),
    log_uniform(1e9, 1e12),
    st.floats(0.0, 1.0),
    st.lists(qubit_states, min_size=1, max_size=3),
)
def test_the_vacuum_route_matches_the_dense_reference(modes, e_j, fraction, states):
    # zero temperature on drawn one- and two-mode systems, couplings up to
    # omega and t <= 0.1 / omega: both evolves keep only the vacuum rows and
    # still agree with the dense construction (the largest gap over 300
    # wider draws, n_max up to 24 for one mode, was 3.0e-15)
    system = OracleSystem(e_j, tuple(modes))
    t = fraction * 0.1 / max(mode.omega for mode in modes)
    stack = np.array(states)
    for split, evolve in ((True, split_evolve), (False, exact_evolve)):
        got = evolve(system, stack, Temperature.zero(), t)
        expect = reference_evolve(system, stack, Temperature.zero(), t, split)
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)
        check_qubit_state(got)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.lists(qubit_states, min_size=1, max_size=3),
    st.floats(0.0, 2e-12),
    st.sampled_from([(FockMode(OMEGA, 3e10, 8),), gauged(TWO_MODES)]),
    st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2),
    st.sampled_from([Temperature.zero(), Temperature.finite(2e-11)]),
)
def test_coupling_phases_leave_the_reduced_maps_alone(states, t, modes, angles, temp):
    # the gauge D = prod_k exp(i arg(g_k) n_k) commutes with every bath state,
    # so couplings g_k and |g_k| give one reduced map; the dense reference
    # keeps the phases, so it checks the gauge independently
    stack = np.array(states)
    phased = tuple(
        FockMode(mode.omega, mode.g * cmath.exp(1j * angle), mode.n_max)
        for mode, angle in zip(modes, angles)
    )
    with_phases, without = OracleSystem(E_J, phased), OracleSystem(E_J, modes)
    for split, evolve in ((True, split_evolve), (False, exact_evolve)):
        got = evolve(with_phases, stack, temp, t)
        np.testing.assert_allclose(
            got, evolve(without, stack, temp, t), rtol=0.0, atol=1e-14
        )
        expect = reference_evolve(with_phases, stack, temp, t, split)
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)


def test_a_time_grid_builds_each_kernel_once_per_temperature(oracle_counts):
    # 64 times on one two-mode system: every map is its own, every kernel and
    # spectrum is built once per (system, temperature), and no evolve builds
    # a bath propagator (the 64 per temperature are the qubit's half-steps)
    system = OracleSystem(E_J, TWO_MODES)
    stack = random_pure_states((3,), 34)
    for n, temp in enumerate(TEMPERATURES_LIST, start=1):
        for t in np.linspace(0.0, 2e-12, 64).tolist():
            for split, evolve in ((True, split_evolve), (False, exact_evolve)):
                got = evolve(system, stack, temp, t)
                expect = reference_evolve(system, stack, temp, t, split)
                np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)
        assert oracle_counts["hermitian_spectrum"] == 5
        assert oracle_counts["_exact_kernels"] == oracle_counts["_split_kernels"] == n
        assert oracle_counts["spectral_propagator"] == 64 * n


@pytest.fixture
def oracle_counts(monkeypatch):
    counts = {
        "hermitian_spectrum": 0,
        "spectral_propagator": 0,
        "_exact_kernels": 0,
        "_split_kernels": 0,
        "_bath_weights": 0,
        "_mode_weights": 0,
        "thermal_bath_state": 0,
    }
    for name in counts:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return counts


@pytest.mark.parametrize(
    "measure,spectra,exact_kernels,weights",
    [(split_deviation, 4, 1, 1), (channel_discrepancy, 2, 0, 0)],
    ids=["split_deviation", "channel_discrepancy"],
)
@pytest.mark.parametrize("samples", [4, 8])
def test_each_measurement_builds_its_propagators_once(
    oracle_counts, measure, spectra, exact_kernels, weights, samples
):
    # a split step takes the qubit half-step, the only propagator an evolve
    # builds, and the mode's kernel; an exact step the kernels of the two
    # parity blocks. On a fresh system each needs its own spectra as well:
    # the two blocks', and one for the qubit and one for the mode. Each
    # kernel build reads each mode's Gibbs weights once; only the exact
    # kernels join them into the bath weights, and no evolve forms the
    # dense bath state.
    measure(reference_system(4), Temperature.finite(5e-11), 2e-13, samples)
    assert oracle_counts == {
        "hermitian_spectrum": spectra,
        "spectral_propagator": 1,
        "_exact_kernels": exact_kernels,
        "_split_kernels": 1,
        "_bath_weights": weights,
        "_mode_weights": weights + 1,
        "thermal_bath_state": 0,
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
    # spectra: the two parity blocks, the qubit and the mode; kernels: each
    # step's once for the one temperature; propagators: the qubit half-step
    # of each of the 4 split maps, the channel's 3 split steps reusing the
    # kept maps; Gibbs weights: once per kernel build
    assert oracle_counts == {
        "hermitian_spectrum": 4,
        "spectral_propagator": 4,
        "_exact_kernels": 1,
        "_split_kernels": 1,
        "_bath_weights": 1,
        "_mode_weights": 2,
        "thermal_bath_state": 0,
    }
    halving_grid_pattern(system, samples)
    assert oracle_counts["hermitian_spectrum"] == 4
    # an equal but new system keeps no spectra from the first: no global cache
    twin = reference_system(4)
    assert twin == system
    halving_grid_pattern(twin, samples)
    assert oracle_counts["hermitian_spectrum"] == 8


def test_the_sample_states_are_drawn_once_per_samples_and_seed(monkeypatch):
    oracle._sample_pure_states.cache_clear()
    draws = []
    original = np.random.default_rng

    def counted(seed):
        draws.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    halving_grid_pattern(reference_system(4), 4)
    assert draws == [7]
    halving_grid_pattern(reference_system(3), 4)
    assert draws == [7]
    halving_grid_pattern(reference_system(4), 6)
    assert draws == [7, 7]


def test_sampled_states_are_read_only():
    states = oracle._sample_pure_states(4, 11)
    with pytest.raises(ValueError):
        states[0, 0, 0] = 0.0


@pytest.mark.parametrize(
    "modes", [(), TWO_MODES, THREE_MODES], ids=["no_modes", "two_modes", "three_modes"]
)
def test_each_system_diagonalizes_full_qubit_and_two_per_mode(oracle_counts, modes):
    # the full Hamiltonian as its two parity blocks, the qubit, and each
    # mode's two generators h_k +- v_k through one spectrum: (w, v)
    # diagonalizes h_k + v_k, and (w, P v) diagonalizes h_k - v_k
    system = OracleSystem(E_J, modes)
    for _ in range(2):
        halving_grid_pattern(system, 4)
        assert oracle_counts["hermitian_spectrum"] == 3 + len(modes)
    # the qubit half-step of the 4 split maps; the second pass finds all 8
    # maps kept, and no exact map builds a propagator
    assert oracle_counts["spectral_propagator"] == 4
    for mode, (w, v) in zip(gauged(modes), system._mode_spectra):
        h, coupling = bath_free_hamiltonian((mode,)), bath_coupling_operator((mode,))
        parity = (-1.0) ** np.arange(mode.levels)
        scale = float(np.abs(h + coupling).max())
        for sign, vecs in ((1.0, v), (-1.0, v * parity[:, None])):
            rebuilt = (vecs * w) @ vecs.T
            np.testing.assert_allclose(
                rebuilt, h + sign * coupling, rtol=0.0, atol=1e-14 * scale
            )


def test_kept_spectra_are_read_only():
    system = OracleSystem(E_J, TWO_MODES)
    exact_evolve(system, PLUS, Temperature.zero(), 1e-13)
    split_evolve(system, PLUS, Temperature.zero(), 1e-13)
    spectra = [*system._block_spectra, system._qubit_spectrum, *system._mode_spectra]
    assert len(spectra) == 5
    for spectrum in spectra:
        for part in spectrum:
            with pytest.raises(ValueError):
                part[0] = 0.0


EVOLVE_PAIR = (split_evolve, exact_evolve)


def test_a_repeated_time_builds_no_propagator(oracle_counts):
    system = reference_system(4)
    temp = Temperature.finite(5e-11)
    first = {evolve: evolve(system, PLUS, temp, 2e-13) for evolve in EVOLVE_PAIR}
    built = dict(oracle_counts)
    # the split map's qubit half-step, and each step's kernels
    assert built["spectral_propagator"] == 1
    assert built["_split_kernels"] == built["_exact_kernels"] == 1
    minus = PLUS - SIGMA_X  # |-><-|
    for evolve, out in first.items():
        evolve(system, minus, temp, 2e-13)
        assert np.array_equal(evolve(system, PLUS, temp, 2e-13), out)
    split_deviation(system, temp, 2e-13, 4)
    channel_discrepancy(system, temp, 2e-13, 4)
    assert oracle_counts == built
    # another temperature is another map and other kernels; another time is
    # another map on the kept kernels
    split_evolve(system, PLUS, Temperature.zero(), 2e-13)
    split_evolve(system, PLUS, temp, 1e-13)
    assert oracle_counts["spectral_propagator"] == 1 + 2
    assert oracle_counts["_split_kernels"] == 2


@pytest.fixture
def map_builds(monkeypatch):
    counts = {"_split_map": 0, "_exact_map": 0}
    for name in counts:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(oracle, name, counted)
    return counts


def test_a_ninth_map_evicts_the_oldest(map_builds):
    system = reference_system(4)
    temp = Temperature.zero()
    times = [1e-13 * (k + 1) for k in range(9)]
    for t in times[:8]:
        split_evolve(system, PLUS, temp, t)
    assert len(system._reduced_maps) == 8
    exact_evolve(system, PLUS, temp, times[8])
    kept = [t for _, _, t in system._reduced_maps]
    assert kept == times[1:]
    count = map_builds["_split_map"]
    split_evolve(system, PLUS, temp, times[1])  # still kept
    assert map_builds["_split_map"] == count
    split_evolve(system, PLUS, temp, times[0])  # evicted: built again
    assert map_builds["_split_map"] == count + 1
    assert len(system._reduced_maps) == 8


def test_kept_maps_are_read_only():
    system = OracleSystem(E_J, TWO_MODES)
    split_deviation(system, Temperature.finite(2e-11), 2e-13, 4)
    assert len(system._reduced_maps) == 2
    for parts in system._reduced_maps.values():
        for part in parts:
            with pytest.raises(ValueError):
                part[(0,) * part.ndim] = 0.0


def test_kept_kernels_are_read_only_and_bounded(oracle_counts):
    # one kernel set per step and temperature, the oldest of four dropped
    # first: both steps at two temperatures stay kept
    system = OracleSystem(E_J, TWO_MODES)
    temps = [Temperature.zero(), Temperature.finite(2e-11), Temperature.finite(3e-11)]
    for temp in temps[:2]:
        split_deviation(system, temp, 2e-13, 4)
    assert len(system._kernels) == 4
    for parts in system._kernels.values():
        # the exact step's kernels or vacuum rows and its traces, or two modes
        assert len(parts) == 2
        for part in parts:
            with pytest.raises(ValueError):
                part[(0,) * part.ndim] = 0.0
    for temp in temps[:2]:
        split_deviation(system, temp, 1e-13, 4)
    assert oracle_counts["_exact_kernels"] == oracle_counts["_split_kernels"] == 2
    split_deviation(system, temps[2], 2e-13, 4)
    assert [temp for _, temp in system._kernels] == [temps[1]] * 2 + [temps[2]] * 2
    split_deviation(system, temps[0], 2e-13, 4)  # evicted: built again
    assert oracle_counts["_exact_kernels"] == oracle_counts["_split_kernels"] == 4


@pytest.mark.parametrize("evolve", EVOLVE_PAIR)
def test_a_changed_result_leaves_the_next_call_alone(evolve):
    system = reference_system(4)
    first = evolve(system, PLUS, Temperature.zero(), 2e-13)
    expect = first.copy()
    first[...] = 0.0
    assert np.array_equal(evolve(system, PLUS, Temperature.zero(), 2e-13), expect)


def test_an_equal_new_system_builds_its_own_maps(oracle_counts, map_builds):
    system = reference_system(4)
    split_deviation(system, Temperature.zero(), 2e-13, 4)
    twin = reference_system(4)
    assert twin == system and not twin._reduced_maps and not twin._kernels
    split_deviation(twin, Temperature.zero(), 2e-13, 4)
    assert oracle_counts["hermitian_spectrum"] == 2 * 4
    assert oracle_counts["_exact_kernels"] == oracle_counts["_split_kernels"] == 2
    assert oracle_counts["spectral_propagator"] == 2 * 1
    assert map_builds == {"_split_map": 2, "_exact_map": 2}


@SYSTEMS
@TEMPERATURES
def test_evolves_build_only_the_occupied_propagator_columns(monkeypatch, modes, temp):
    # zero temperature occupies the bath vacuum alone, finite all levels (a
    # bath without modes has one level at both). No evolve builds a bath
    # propagator: the only one is the qubit's 2 x 2 half-step. At one
    # occupied level the exact step keeps the two blocks' vacuum rows V_s[0]
    # and nothing of size B x B, and the split step one row V_k[0] per mode.
    # Otherwise the exact step keeps 8 B x B kernels, the split step one per
    # mode, and each kernel reads only the occupied levels: it equals the
    # product (V_s^T Pi^x V_s') o (V_s^T diag(p) Pi^y V_s') over all B levels
    system = OracleSystem(E_J, modes)
    b = system.bath_dim
    shapes = []
    original = oracle.spectral_propagator

    def recorded(*args):
        u = original(*args)
        shapes.append(u.shape)
        return u

    monkeypatch.setattr(oracle, "spectral_propagator", recorded)
    exact_evolve(system, PLUS, temp, 1e-13)
    assert shapes == []
    split_evolve(system, PLUS, temp, 1e-13)
    assert shapes == [(2, 2)]
    kept, traces = system._kernels[oracle._exact_kernels, temp]
    weights = thermal_bath_state(system, temp).real
    parity = bath_parity(modes).real
    np.testing.assert_allclose(
        traces, [np.trace(weights), np.trace(weights @ parity)], rtol=0.0, atol=1e-15
    )
    vecs = [v for _, v in system._block_spectra]
    kernels = system._kernels[oracle._split_kernels, temp]
    if temp.beta is None or not modes:
        assert kept.shape == (2, b) and traces.shape == (2,)
        assert not kept.flags.writeable
        assert np.array_equal(kept, [v[0] for v in vecs])
        assert [k.shape for k in kernels] == [(m.levels,) for m in modes]
        for (_, v), row in zip(system._mode_spectra, kernels):
            assert np.array_equal(row, v[0]) and not row.flags.writeable
        return
    assert kept.shape == (8, b, b) and traces.shape == (2,)
    for k, (s, s2, x, y) in enumerate(oracle._DENSE_SECTORS.T):
        overlap = vecs[s].T @ np.linalg.matrix_power(parity, x) @ vecs[s2]
        weighted = vecs[s].T @ weights @ np.linalg.matrix_power(parity, y) @ vecs[s2]
        np.testing.assert_allclose(kept[k], overlap * weighted, rtol=0.0, atol=1e-15)
    assert [k.shape for k in kernels] == [(m.levels, m.levels) for m in modes]
    for mode, (_, v), kernel in zip(modes, system._mode_spectra, kernels):
        weights = np.diag(oracle._mode_weights(mode, temp))
        p = np.diag((-1.0) ** np.arange(mode.levels))
        expect = (v.T @ p @ v) * (v.T @ weights @ p @ v)
        np.testing.assert_allclose(kernel, expect, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "modes", [(FockMode(OMEGA, COUPLING, 8),), TWO_MODES], ids=["one_mode", "two_modes"]
)
def test_the_route_follows_the_bath_state_not_the_temperature(modes):
    # beta omega >= 1e5: every excited Gibbs weight underflows to 0, so the
    # finite temperature leaves the bath in its vacuum. Both steps keep the
    # vacuum rows, and every evolve and measurement has the bits of zero
    # temperature
    system = OracleSystem(E_J, modes)
    cold, zero = Temperature.finite(1e-6), Temperature.zero()
    assert np.array_equal(
        oracle._bath_weights(system, cold), oracle._bath_weights(system, zero)
    )
    stack = random_pure_states((3,), 35)
    for t in (1e-13, 4e-13):
        for evolve in EVOLVE_PAIR:
            got = evolve(system, stack, cold, t)
            assert np.array_equal(got, evolve(system, stack, zero, t))
        for measure in (split_deviation, channel_discrepancy):
            assert measure(system, cold, t, 6) == measure(system, zero, t, 6)
    kept, _ = system._kernels[oracle._exact_kernels, cold]
    assert kept.shape == (2, system.bath_dim)
    rows = system._kernels[oracle._split_kernels, cold]
    assert [row.shape for row in rows] == [(m.levels,) for m in modes]


EVOLVES = pytest.mark.parametrize("evolve", [split_evolve, exact_evolve])


@EVOLVES
@TEMPERATURES
def test_evolution_names_t_when_a_phase_overflows(evolve, temp):
    # t = 1e300 is finite, but omega t is beyond float range
    with pytest.raises(
        ToleranceNotMet, match=r"^at t = 1\.000000e\+300 s: phase w t is not finite$"
    ):
        evolve(reference_system(), PLUS, temp, 1e300)


BAD_TIMES = pytest.mark.parametrize(
    "t,message",
    [
        (math.nan, "t must be finite"),
        (math.inf, "t must be finite"),
        (-1e-13, "t must be nonnegative"),
        (-math.inf, "t must be nonnegative"),
    ],
    ids=["nan", "inf", "negative", "minus_inf"],
)


@EVOLVES
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@BAD_TIMES
def test_evolution_rejects_bad_times(evolve, warm, t, message):
    system = reference_system(4)
    if warm:
        evolve(system, PLUS, Temperature.zero(), 1e-13)
    with pytest.raises(ValueError, match=message):
        evolve(system, PLUS, Temperature.zero(), t)


@pytest.mark.parametrize("measure", [split_deviation, channel_discrepancy])
@BAD_TIMES
def test_measurements_reject_bad_times(measure, t, message):
    # no mode, so that no g_discrete call checks t on the measurement's behalf
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure(OracleSystem(E_J, ()), Temperature.zero(), t, 6)


@pytest.mark.parametrize(
    "measure,samples,message",
    [
        (split_deviation, 0, "need at least one sample"),
        (channel_discrepancy, 3, "need at least 4 samples"),
    ],
    ids=["split_deviation", "channel_discrepancy"],
)
def test_measurements_reject_too_few_samples(measure, samples, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure(reference_system(4), Temperature.zero(), 1e-13, samples)


@EVOLVES
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: OracleSystem(math.nan, (FockMode(OMEGA, COUPLING, 4),)), "e_j"),
        (lambda: OracleSystem(math.inf, (FockMode(OMEGA, COUPLING, 4),)), "e_j"),
        (lambda: FockMode(OMEGA, complex(math.nan, 0.0), 4), "g"),
        (lambda: FockMode(OMEGA, math.inf, 4), "g"),
    ],
    ids=["nan_e_j", "inf_e_j", "nan_g", "inf_g"],
)
def test_non_finite_systems_fail_on_every_call(monkeypatch, evolve, build, message):
    # a non-finite field is rejected when the system is built, by name
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message} must be finite$"):
            build()
    # a failed spectrum is not kept: after an eigensolver failure the next
    # call diagonalizes again, and gets the bits of a system that never failed
    system = reference_system(4)
    original = oracle.hermitian_spectrum
    failures = [NoConvergence("eigh did not converge")]

    def failing_once(h):
        if failures:
            raise failures.pop()
        return original(h)

    monkeypatch.setattr(oracle, "hermitian_spectrum", failing_once)
    with pytest.raises(NoConvergence):
        evolve(system, PLUS, Temperature.zero(), 1e-13)
    got = evolve(system, PLUS, Temperature.zero(), 1e-13)
    expect = evolve(reference_system(4), PLUS, Temperature.zero(), 1e-13)
    assert np.array_equal(got, expect)
