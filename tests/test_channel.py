import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubit_dephasing import channel
from qubit_dephasing.bath import suppression_factor
from qubit_dephasing.channel import (
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
from qubit_dephasing.entanglement import analytic_bell_state, initial_state
from qubit_dephasing.errors import InvalidState

HALVING_EXPONENT = 0.17328679513998632  # ln(2)/4, gives delta = 1/2


def random_qubit_state(rng):
    vecs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    probs = rng.dirichlet((1.0, 1.0))
    rho = np.zeros((2, 2), dtype=complex)
    for p, v in zip(probs, vecs):
        v = v / np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


def random_pair_state(rng):
    vecs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    probs = rng.dirichlet((1.0, 1.0, 1.0))
    rho = np.zeros((4, 4), dtype=complex)
    for p, v in zip(probs, vecs):
        v = v / np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


def test_identity_at_zero_exponent_and_time():
    rng = np.random.default_rng(0)
    params = QubitParams(1e10)
    rho = random_qubit_state(rng)
    np.testing.assert_allclose(evolve_single(rho, params, 0.0, 0.0), rho, atol=1e-14)


def test_maximally_mixed_is_fixed_point():
    params = QubitParams(1e10)
    half = 0.5 * np.eye(2, dtype=complex)
    out = evolve_single(half, params, 0.7, 3e-12)
    np.testing.assert_allclose(out, half, atol=1e-14)


def test_coherence_halves_at_frozen_exponent():
    # delta = 1/2 and no precession: i/2 coherence becomes i/4
    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    out = evolve_single(rho, QubitParams(1e10), HALVING_EXPONENT, 0.0)
    assert out[0, 1] == pytest.approx(0.25j, abs=1e-14)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_pure_unitary_precession():
    e_j, t = 1e10, 2.3e-12
    rho = np.array([[0.25, 0.2 + 0.1j], [0.2 - 0.1j, 0.75]])
    out = evolve_single(rho, QubitParams(e_j), 0.0, t)
    phase = np.exp(-1j * e_j * t)
    assert out[0, 1] == pytest.approx(phase * rho[0, 1], abs=1e-14)
    assert out[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_population_mixing_weights():
    rho = np.diag([0.9, 0.1]).astype(complex)
    g = 0.3
    delta = math.exp(-4.0 * g)
    out = evolve_single(rho, QubitParams(0.0), g, 1e-12)
    assert out[0, 0] == pytest.approx(0.5 * (1 + delta) * 0.9 + 0.5 * (1 - delta) * 0.1)
    assert out.trace() == pytest.approx(1.0, abs=1e-14)


def test_trace_preserved_generically():
    rng = np.random.default_rng(1)
    params = QubitParams(1e10)
    for _ in range(20):
        out = evolve_single(random_qubit_state(rng), params, 0.2, 1e-12)
        assert abs(out.trace() - 1.0) < 1e-13


def test_exponent_composition_at_fixed_time_zero():
    # two kicks at exponents a and b equal one kick at a + b
    rng = np.random.default_rng(2)
    params = QubitParams(1e10)
    rho = random_qubit_state(rng)
    a, b = 0.12, 0.41
    twice = evolve_single(evolve_single(rho, params, a, 0.0), params, b, 0.0)
    once = evolve_single(rho, params, a + b, 0.0)
    np.testing.assert_allclose(twice, once, atol=1e-13)


def test_unitary_composition_in_time():
    rng = np.random.default_rng(8)
    params = QubitParams(7e9)
    rho = random_qubit_state(rng)
    t1, t2 = 1.1e-12, 2.4e-12
    twice = evolve_single(evolve_single(rho, params, 0.0, t1), params, 0.0, t2)
    once = evolve_single(rho, params, 0.0, t1 + t2)
    np.testing.assert_allclose(twice, once, atol=1e-13)


def test_coherence_never_grows():
    rng = np.random.default_rng(3)
    params = QubitParams(1e10)
    for _ in range(50):
        rho = random_qubit_state(rng)
        out = evolve_single(rho, params, float(rng.uniform(0.0, 2.0)), 1e-12)
        assert abs(out[0, 1]) <= abs(rho[0, 1]) + 1e-14


def test_deviation_diagonal_entries():
    rng = np.random.default_rng(4)
    params = QubitParams(1e10)
    g, t = 0.37, 1e-12
    rho = random_qubit_state(rng)
    sigma = deviation(
        evolve_single(rho, params, g, t), evolve_single(rho, params, 0.0, t)
    )
    expect = 0.5 * (rho[0, 0] - rho[1, 1]).real * (math.exp(-4.0 * g) - 1.0)
    assert sigma[0, 0].real == pytest.approx(expect, abs=1e-13)
    assert sigma[1, 1].real == pytest.approx(-expect, abs=1e-13)
    assert abs(sigma.trace()) < 1e-13


def test_lambda_norm_three_four_five():
    sigma = np.array([[-0.4, 0.3], [0.3, 0.4]], dtype=complex)
    assert lambda_norm(sigma) == pytest.approx(0.5, rel=1e-14)


def test_lambda_norm_diagonal_case():
    assert lambda_norm(np.diag([0.3, -0.3])) == pytest.approx(0.3, rel=1e-14)


def test_lambda_norm_equals_top_eigenvalue():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.normal()
        c = rng.normal() + 1j * rng.normal()
        sigma = np.array([[a, np.conj(c)], [c, -a]])
        top = float(np.linalg.eigvalsh(sigma).max())
        assert lambda_norm(sigma) == pytest.approx(top, rel=1e-12)


def test_lambda_norm_rejects_traceful():
    with pytest.raises(InvalidState):
        lambda_norm(np.eye(2))


def test_max_decoherence_analytic_values():
    assert max_decoherence_analytic(0.0) == 0.0
    assert max_decoherence_analytic(0.25) == pytest.approx(
        0.31606027941427883, rel=1e-15
    )
    assert max_decoherence_analytic(50.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "function", [suppression_factor, max_decoherence_analytic], ids=lambda f: f.__name__
)
def test_exp_rule_takes_an_array_with_the_scalar_bits(function):
    # one exp(-4 G) rule for the sweep's stacked columns and the per-point calls
    exponents = [0.0, 1e-12, 0.2, 50.0, 200.0]
    got = function(np.array(exponents))
    assert isinstance(got, np.ndarray) and got.shape == (len(exponents),)
    for g, value in zip(exponents, got.tolist()):
        scalar = function(g)
        assert type(scalar) is float and value.hex() == scalar.hex()
    for bad in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="^g_value must be nonnegative$"):
            function(np.array([0.2, bad, 1.0]))


def test_max_decoherence_numeric_matches_analytic():
    params = QubitParams(1e10)
    for g in (1e-3, 0.25, 1.0):
        got = max_decoherence_numeric(params, g, 1.3e-12, 12)
        assert got == pytest.approx(max_decoherence_analytic(g), abs=1e-10)


def test_max_decoherence_numeric_grid_floor():
    with pytest.raises(ValueError):
        max_decoherence_numeric(QubitParams(1e10), 0.1, 1e-12, 4)


def test_cptp_holds_for_physical_exponents():
    params = QubitParams(1e10)
    for g in (0.0, 1e-5, 0.25, 1.0, 2.0):
        assert cptp_check(params, g, 1e-12)


def test_cptp_fails_for_negated_exponent():
    assert not cptp_check(QubitParams(1e10), -1.0, 1e-12)


@pytest.mark.parametrize("g", [-200.0, -math.inf, math.nan], ids=["overflow", "-inf", "nan"])
def test_cptp_is_false_with_a_diagnostic_when_the_images_are_not_finite(caplog, g):
    # exp(-4 G) overflows or is NaN; no numpy warning escapes, and the
    # logged diagnostic names the exponent
    with caplog.at_level("WARNING", logger=channel.log.name):
        assert not cptp_check(QubitParams(1e10), g, 1e-12)
    assert caplog.messages == [f"channel images not finite at exponent {g!r}"]


# Largest entry gap of a pair output to its factorized form, over 3,000
# random product inputs and Bell points: 2.2e-16.
FACTORIZED_GAP = 1e-15


def test_pair_factorizes_on_product_input():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p1, p2 = (QubitParams(float(e)) for e in rng.uniform(1e9, 5e10, 2))
        g1, g2 = rng.uniform(0.0, 1.5, 2).tolist()
        t = float(rng.uniform(0.0, 2e-10))
        rho_a, rho_b = random_qubit_state(rng), random_qubit_state(rng)
        joint = evolve_pair(np.kron(rho_a, rho_b), p1, p2, g1, g2, t)
        split = np.kron(
            evolve_single(rho_a, p1, g1, t), evolve_single(rho_b, p2, g2, t)
        )
        np.testing.assert_allclose(joint, split, rtol=0, atol=FACTORIZED_GAP)


def test_pair_matches_analytic_bell_output():
    e_j = 1e10
    params = QubitParams(e_j)
    g1, g2, t = 0.13, 0.28, 3e-12
    out = evolve_pair(initial_state(1.0), params, params, g1, g2, t)
    expect = analytic_bell_state(g1, g2, 2.0 * e_j, t)
    np.testing.assert_allclose(out, expect, rtol=0, atol=FACTORIZED_GAP)


def test_pair_trace_and_positivity_preserved():
    rng = np.random.default_rng(7)
    p1, p2 = QubitParams(1e10), QubitParams(1.4e10)
    for _ in range(100):
        rho = random_pair_state(rng)
        out = evolve_pair(rho, p1, p2, 0.31, 0.07, 1.7e-12)
        check_pair_state(out)  # raises on any violation


def test_single_outputs_remain_valid_states():
    rng = np.random.default_rng(9)
    params = QubitParams(1e10)
    for _ in range(100):
        g = float(rng.uniform(0.0, 3.0))
        t = float(rng.uniform(0.0, 5e-12))
        out = evolve_single(random_qubit_state(rng), params, g, t)
        check_qubit_state(out)  # raises on any violation


def test_state_validation_rejects_bad_inputs():
    params = QubitParams(1e10)
    with pytest.raises(InvalidState):
        evolve_single(np.array([[0.5, 0.6], [0.0, 0.5]]), params, 0.1, 1e-12)
    with pytest.raises(InvalidState):
        evolve_single(np.diag([0.9, 0.9]), params, 0.1, 1e-12)
    with pytest.raises(InvalidState):
        evolve_single(np.diag([1.5, -0.5]).astype(complex), params, 0.1, 1e-12)
    with pytest.raises(InvalidState):
        check_pair_state(np.eye(2))


def test_negative_arguments_rejected():
    params = QubitParams(1e10)
    half = 0.5 * np.eye(2)
    with pytest.raises(ValueError):
        evolve_single(half, params, -0.1, 1e-12)
    with pytest.raises(ValueError):
        evolve_single(half, params, 0.1, -1e-12)
    with pytest.raises(ValueError):
        max_decoherence_analytic(-1.0)


# (call, exact message); every time follows the bath module's one time rule
BAD_ARGUMENTS = [
    (
        lambda p, half: evolve_single(half, p, math.nan, 1e-12),
        "g_value must be nonnegative",
    ),
    (lambda p, half: evolve_single(half, p, 0.1, math.nan), "t must be finite"),
    (lambda p, half: evolve_single(half, p, 0.1, math.inf), "t must be finite"),
    (
        lambda p, half: evolve_pair(np.kron(half, half), p, p, math.nan, 0.1, 1e-12),
        "exponents must be nonnegative",
    ),
    (
        lambda p, half: evolve_pair(np.kron(half, half), p, p, 0.1, math.nan, 1e-12),
        "exponents must be nonnegative",
    ),
    (
        lambda p, half: evolve_pair(np.kron(half, half), p, p, 0.1, 0.1, math.nan),
        "t must be finite",
    ),
    (
        lambda p, half: evolve_pair(np.kron(half, half), p, p, 0.1, 0.1, math.inf),
        "t must be finite",
    ),
    (lambda p, half: max_decoherence_analytic(math.nan), "g_value must be nonnegative"),
    (
        lambda p, half: max_decoherence_numeric(p, math.nan, 1e-12, 8),
        "g_value must be nonnegative",
    ),
    (lambda p, half: max_decoherence_numeric(p, 0.1, math.nan, 8), "t must be finite"),
    (lambda p, half: evolve_single(half, p, 0.1, -math.inf), "t must be nonnegative"),
    (
        lambda p, half: evolve_pair(np.kron(half, half), p, p, 0.1, 0.1, -math.inf),
        "t must be nonnegative",
    ),
    (lambda p, half: max_decoherence_numeric(p, 0.1, math.inf, 8), "t must be finite"),
    # cptp_check leaves its exponent unconstrained, not its time
    (lambda p, half: cptp_check(p, 0.1, math.nan), "t must be finite"),
    (lambda p, half: cptp_check(p, 0.1, math.inf), "t must be finite"),
    (lambda p, half: cptp_check(p, 0.1, -math.inf), "t must be nonnegative"),
    (lambda p, half: cptp_check(p, 0.1, -1e-12), "t must be nonnegative"),
    (lambda p, half: analytic_bell_state(0.1, 0.1, 2e10, math.nan), "t must be finite"),
    (lambda p, half: analytic_bell_state(0.1, 0.1, 2e10, math.inf), "t must be finite"),
    (
        lambda p, half: analytic_bell_state(0.1, 0.1, 2e10, -math.inf),
        "t must be nonnegative",
    ),
    (
        lambda p, half: analytic_bell_state(0.1, 0.1, 2e10, -1e-12),
        "t must be nonnegative",
    ),
    (lambda p, half: QubitParams(math.inf), "e_j must be finite"),
]


@pytest.mark.parametrize(
    ("call", "message"),
    BAD_ARGUMENTS,
    # the ids pytest gives bare lambdas
    ids=[f"<lambda>{i}" for i in range(len(BAD_ARGUMENTS))],
)
def test_nan_and_infinite_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(QubitParams(1e10), 0.5 * np.eye(2))


def test_infinite_exponent_is_accepted():
    # delta = 0: the populations mix completely
    rho = np.array([[0.9, 0.3j], [-0.3j, 0.1]])
    out = check_qubit_state(evolve_single(rho, QubitParams(1e10), math.inf, 1e-12))
    np.testing.assert_allclose(out.diagonal(), [0.5, 0.5], atol=1e-15)
    assert max_decoherence_analytic(math.inf) == 0.5


# -- stacks of states ----------------------------------------------------------


def random_qubit_stack(rng, shape):
    return np.array([random_qubit_state(rng) for _ in range(math.prod(shape))]).reshape(
        *shape, 2, 2
    )


def test_stacked_states_pass_unchanged():
    rng = np.random.default_rng(10)
    qubits = random_qubit_stack(rng, (3, 4))
    np.testing.assert_array_equal(check_qubit_state(qubits), qubits)
    pairs = np.array([random_pair_state(rng) for _ in range(5)])
    np.testing.assert_array_equal(check_pair_state(pairs), pairs)


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (np.array([[0.5, 0.6], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([0.9, 0.9]), "trace differs"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.array([[0.5, math.nan], [math.nan, 0.5]]), "finite"),
    ],
)
def test_stack_with_one_bad_state_rejected(bad, message):
    rng = np.random.default_rng(11)
    stack = random_qubit_stack(rng, (2, 3))
    stack[1, 2] = bad
    with pytest.raises(InvalidState, match=message):
        check_qubit_state(stack)
    with pytest.raises(InvalidState, match=message):
        evolve_single(stack, QubitParams(1e10), 0.1, 1e-12)


def test_stack_reports_the_worst_defect():
    stack = np.array([np.diag([0.5, 0.5 + d]) for d in (0.0, 1e-9, 3e-6, 2e-8)])
    with pytest.raises(InvalidState, match="by 3.000e-06"):
        check_qubit_state(stack)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 3), (4,), (0, 2, 2)])
def test_wrong_qubit_shapes_rejected(shape):
    with pytest.raises(InvalidState, match="expected a 2x2 matrix"):
        check_qubit_state(np.zeros(shape, dtype=complex))


def test_lambda_norm_of_a_stack_equals_per_matrix_values():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 5))
    c = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    sigma = np.stack([np.stack([a, np.conj(c)], -1), np.stack([c, -a], -1)], -2)
    norms = lambda_norm(sigma)
    assert norms.shape == (4, 5)
    expect = [[lambda_norm(sigma[i, j]) for j in range(5)] for i in range(4)]
    np.testing.assert_array_equal(norms, expect)
    with pytest.raises(InvalidState, match="traceless"):
        lambda_norm(sigma + 1e-9 * np.eye(2))
    with pytest.raises(InvalidState, match="expected a 2x2 matrix"):
        lambda_norm(np.zeros((0, 2, 2)))


def test_single_state_evolves_as_scalar_complex_arithmetic():
    # oracle-check writes channel-vs-propagator gaps with 16 digits, so one
    # state must evolve to the bits of the entrywise formula, whatever the
    # array loops fuse; delta is numpy's exp, the sweep's one rule for it.
    rng = np.random.default_rng(13)
    params = QubitParams(1.3e10)
    for _ in range(200):
        rho = random_qubit_state(rng)
        g, t = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5e-12))
        delta = float(np.exp(-4.0 * g))
        up, dn = 0.5 * (1.0 + delta), 0.5 * (1.0 - delta)
        ph = cmath.exp(-1j * params.e_j * t)
        (r00, r01), (r10, r11) = [[complex(x) for x in row] for row in rho]
        out = np.array(
            [
                [up * r00 + dn * r11, up * ph * r01 + dn * r10],
                [up * ph.conjugate() * r10 + dn * r01, up * r11 + dn * r00],
            ]
        )
        expect = 0.5 * (out + out.conj().T)
        np.testing.assert_array_equal(evolve_single(rho, params, g, t), expect)


def reference_max_decoherence(params, g_value, t, grid_size):
    # The Bloch scan written one state at a time, as the library did it
    # before the scan became one array pass.
    thetas = np.linspace(0.0, math.pi, grid_size + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    angles = [(0.0, 0.0), (math.pi, 0.0)]
    angles += [(th, ph) for th in thetas for ph in phis]
    best = 0.0
    for theta, phi in angles:
        amp0 = math.cos(0.5 * theta)
        amp1 = math.sin(0.5 * theta) * cmath.exp(1j * phi)
        vec = np.array([amp0, amp1])
        rho0 = np.outer(vec, vec.conj())
        sigma = deviation(
            evolve_single(rho0, params, g_value, t),
            evolve_single(rho0, params, 0.0, t),
        )
        best = max(best, lambda_norm(sigma))
    return best


@pytest.mark.parametrize(
    ("g", "t", "grid"),
    [(g, t, 8) for g in (0.0, 1e-5, 0.25, 2.0) for t in (0.0, 1e-11)]
    + [(0.0, 0.0, 33), (1e-5, 1e-11, 33), (0.25, 0.0, 33), (2.0, 1e-11, 33)],
)
def test_max_decoherence_numeric_matches_per_state_scan(g, t, grid):
    params = QubitParams(1e10)
    got = max_decoherence_numeric(params, g, t, grid)
    assert isinstance(got, float)
    assert got == pytest.approx(reference_max_decoherence(params, g, t, grid), abs=1e-15)


def recorded_shapes(monkeypatch, name):
    # the shape of the state passed to each later call of channel.<name>
    seen = []
    original = getattr(channel, name)

    def recording(rho):
        seen.append(np.shape(rho))
        return original(rho)

    monkeypatch.setattr(channel, name, recording)
    return seen


def test_bloch_scan_checks_its_initial_states_once(monkeypatch):
    seen = recorded_shapes(monkeypatch, "check_qubit_state")
    max_decoherence_numeric(QubitParams(1e10), 0.2, 1e-12, 8)
    # the initial states once, then both outputs inside deviation
    assert seen == [(66, 2, 2)] * 3


# -- properties ----------------------------------------------------------------

def bloch_matrix(r, theta, phi):
    # (1 + r n.sigma)/2: Hermitian, unit trace, eigenvalues (1 -+ r)/2
    return 0.5 * np.array(
        [
            [1.0 + r * math.cos(theta), r * math.sin(theta) * cmath.exp(-1j * phi)],
            [r * math.sin(theta) * cmath.exp(1j * phi), 1.0 - r * math.cos(theta)],
        ]
    )


azimuths = st.floats(0.0, 2.0 * math.pi)
bloch_states = st.builds(
    bloch_matrix, st.floats(0.0, 1.0), st.floats(0.0, math.pi), azimuths
)
properties = settings(derandomize=True, max_examples=40, deadline=None)


@properties
@given(
    st.lists(bloch_states, min_size=1, max_size=6),
    st.floats(0.0, 3.0),
    st.floats(0.0, 1e-11),
)
def test_stacked_evolution_equals_per_state_calls(states, g, t):
    params = QubitParams(1.3e10)
    stacked = evolve_single(np.array(states), params, g, t)
    single = [evolve_single(rho, params, g, t) for rho in states]
    np.testing.assert_array_equal(stacked, single)
    check_qubit_state(stacked)
    for out in single:
        check_qubit_state(out)


@properties
@given(st.floats(0.0, 2.0), st.floats(0.0, 1e-10), st.integers(8, 24))
def test_numeric_maximum_stays_within_the_analytic_bound(g, t, grid):
    got = max_decoherence_numeric(QubitParams(1e10), g, t, grid)
    assert 0.0 <= got <= max_decoherence_analytic(g) + 1e-12


# Unit-trace Hermitian matrices: the maximally mixed state, near-degenerate,
# mixed and pure states, ones whose lowest eigenvalue is near the floor and
# ones far outside the Bloch ball; theta at a pole gives a diagonal matrix.
hermitian_qubits = st.builds(
    bloch_matrix,
    st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-9),
        st.floats(0.0, 1.0),
        st.just(1.0),
        st.floats(1.0 - 1e-11, 1.0 + 1e-11),
        st.floats(1.0, 3.0),
    ),
    st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    azimuths,
)
any_qubit_matrices = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
).map(lambda entries: np.array(entries).reshape(2, 2))


@properties
@given(st.lists(hermitian_qubits, min_size=1, max_size=6))
def test_closed_form_lowest_eigenvalue_matches_eigvalsh(mats):
    for a in [np.array(mats)] + [m[None] for m in mats]:
        *_, lowest = channel._qubit_margins(a)
        expect = float(np.linalg.eigvalsh(a).min())
        assert abs(lowest - expect) <= 1e-15 * max(1.0, np.abs(a).max())


@properties
@given(st.lists(any_qubit_matrices, min_size=1, max_size=6))
def test_closed_form_defect_and_trace_gap_have_the_matrix_bits(mats):
    a = np.array(mats)
    defect, trace_gap, _ = channel._qubit_margins(a)
    expect_defect, expect_gap, _ = channel._matrix_margins(a)
    assert (defect, trace_gap) == (expect_defect, expect_gap)


@properties
@given(st.lists(hermitian_qubits, min_size=1, max_size=6))
def test_qubit_check_accepts_what_eigvalsh_accepts(mats):
    a = np.array(mats)
    expect = float(np.linalg.eigvalsh(a).min())
    assume(abs(expect - channel.QUBIT_PSD_FLOOR) > 1e-15)
    if expect < channel.QUBIT_PSD_FLOOR:
        with pytest.raises(InvalidState, match="^negative eigenvalue "):
            check_qubit_state(a)
    else:
        assert check_qubit_state(a) is a


@pytest.mark.parametrize("inside_a_stack", [False, True])
def test_qubit_eigenvalue_floor(inside_a_stack):
    def state(e):
        rho = np.diag([1.0 + e, -e]).astype(complex)
        if not inside_a_stack:
            return rho
        stack = random_qubit_stack(np.random.default_rng(12), (3,))
        stack[1] = rho
        return stack

    check_qubit_state(state(0.9e-12))
    with pytest.raises(InvalidState, match="^negative eigenvalue -1.100e-12$"):
        check_qubit_state(state(1.1e-12))


# -- the pair channel over a time grid -------------------------------------------


def reference_evolve_pair(rho0, p1, p2, g1, g2, t):
    # evolve_pair one point at a time from np.kron products of the Kraus
    # operators sqrt((1 +- delta)/2) (R, X), an independent form of the
    # channel the library applies entrywise on each qubit's axes
    def kraus_ops(e_j, g_value):
        delta = math.exp(-4.0 * g_value)
        half = cmath.exp(-0.5j * e_j * t)
        rot = np.array([[half, 0.0], [0.0, half.conjugate()]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return [math.sqrt(0.5 * (1.0 + delta)) * rot, math.sqrt(0.5 * (1.0 - delta)) * swap]

    a = check_pair_state(rho0)
    out = np.zeros((4, 4), dtype=complex)
    for ka in kraus_ops(p1.e_j, g1):
        for kb in kraus_ops(p2.e_j, g2):
            k = np.kron(ka, kb)
            out += k @ a @ k.conj().T
    return 0.5 * (out + out.conj().T)


# largest entry gap to the Kraus form measured on the inputs below: 3.3e-16
KRAUS_GAP = 1e-15


def same_bits(a, b):
    # stricter than array_equal: signed zeros must match too
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pair_grid(rng, n, finite_g):
    ts = np.linspace(0.0, float(rng.uniform(1e-12, 5e-10)), n)
    if not finite_g:
        return np.zeros(n), np.zeros(n), ts
    return rng.uniform(0.0, 0.6, n), rng.uniform(0.0, 1.5, n), ts


@pytest.mark.parametrize("finite_g", [False, True], ids=["zero_g", "finite_g"])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.6 - 1.3j, 1j])
def test_stacked_pair_evolution_equals_per_point_reference(finite_g, alpha):
    rng = np.random.default_rng(21)
    p1, p2 = QubitParams(1e10), QubitParams(1.7e10)
    rho0 = initial_state(alpha)
    g1, g2, ts = pair_grid(rng, 37, finite_g)
    stack = evolve_pair(rho0, p1, p2, g1, g2, ts)
    assert stack.shape == (37, 4, 4)
    for i in range(37):
        args = (rho0, p1, p2, float(g1[i]), float(g2[i]), float(ts[i]))
        assert same_bits(stack[i], evolve_pair(*args))
        np.testing.assert_allclose(stack[i], reference_evolve_pair(*args), rtol=0, atol=KRAUS_GAP)


def test_stacked_pair_evolution_of_mixed_states_equals_reference():
    rng = np.random.default_rng(22)
    p1, p2 = QubitParams(0.8e10), QubitParams(1.3e10)
    for _ in range(20):
        rho0 = random_pair_state(rng)
        g1, g2, ts = pair_grid(rng, 9, True)
        stack = evolve_pair(rho0, p1, p2, list(g1), list(g2), list(ts))
        for i in range(9):
            args = (rho0, p1, p2, g1[i], g2[i], ts[i])
            assert same_bits(stack[i], evolve_pair(*args))
            np.testing.assert_allclose(
                stack[i], reference_evolve_pair(*args), rtol=0, atol=KRAUS_GAP
            )


@pytest.mark.parametrize(
    ("g1", "g2", "t", "message"),
    [
        ([0.1, 0.2], [0.1, 0.2], [0.0, 1e-12, 2e-12], "one nonzero length"),
        ([0.1, 0.2], 0.1, [0.0, 1e-12], "one nonzero length"),
        ([], [], [], "one nonzero length"),
        ([[0.1]], [[0.1]], [[0.0]], "one nonzero length"),
        ([0.1, math.nan], [0.1, 0.2], [0.0, 1e-12], "exponents"),
        ([0.1, 0.2], [0.1, -0.2], [0.0, 1e-12], "exponents"),
        ([0.1, 0.2], [0.1, 0.2], [0.0, math.nan], "t must be"),
        ([0.1, 0.2], [0.1, 0.2], [-1e-12, 0.0], "t must be"),
        ([0.1, 0.2], [0.1, 0.2], [0.0, math.inf], "t must be"),
    ],
)
def test_pair_grid_argument_rules(g1, g2, t, message):
    p = QubitParams(1e10)
    with pytest.raises(ValueError, match=message):
        evolve_pair(initial_state(1.0), p, p, g1, g2, t)


def test_pair_evolution_takes_one_initial_state():
    p = QubitParams(1e10)
    two = np.array([initial_state(1.0), initial_state(2.0)])
    with pytest.raises(InvalidState, match="expected a 4x4 matrix"):
        evolve_pair(two, p, p, 0.1, 0.1, 1e-12)
    with pytest.raises(InvalidState):
        evolve_pair(np.zeros((0, 4, 4)), p, p, 0.1, 0.1, 1e-12)


def test_pair_evolution_checks_the_initial_state_once_per_call(monkeypatch):
    seen = recorded_shapes(monkeypatch, "check_pair_state")
    p = QubitParams(1e10)
    ts = np.linspace(0.0, 1e-11, 50)
    evolve_pair(initial_state(2.0), p, p, 0.1 * ts / ts[-1], 0.2 * ts / ts[-1], ts)
    evolve_pair(initial_state(2.0), p, p, 0.1, 0.2, 1e-12)
    assert seen == [(4, 4), (4, 4)]


# -- the Bloch scan on entrywise 2 x 2 kernels ---------------------------------
# The full-matrix forms the scan used before its 2 x 2 paths went entrywise,
# kept as references: every output must keep their bits, signed zeros
# included.


def reference_hermitize(out):
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def reference_lambda_norm(sigma):
    a = np.asarray(sigma, dtype=complex)
    if not np.isfinite(a).all():
        raise InvalidState("deviation entries must be finite")
    defect = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    if defect > channel.HERMITICITY_TOL:
        raise InvalidState(f"deviation not Hermitian, defect {defect:.3e}")
    trace_size = float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())
    if trace_size > channel.TRACE_TOL:
        raise InvalidState(f"deviation not traceless, |trace| {trace_size:.3e}")
    row = a[..., 1, :]
    norms = np.sqrt((np.hypot(row.real, row.imag) ** 2).sum(axis=-1))
    return float(norms) if a.ndim == 2 else norms


def reference_bloch_states(grid_size):
    # one (theta, phi) pair per state, both poles first, then theta-major
    thetas = np.linspace(0.0, math.pi, grid_size + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    theta = np.concatenate(([0.0, math.pi], np.repeat(thetas, grid_size)))
    phi = np.concatenate(([0.0, 0.0], np.tile(phis, grid_size)))
    vec = np.stack([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)], -1)
    return vec[:, :, None] * vec.conj()[:, None, :]


def signed_zero_states():
    # valid states whose entries carry zeros of either sign in every place
    z = [0.0, -0.0]
    states = []
    for re01, im01, im00, im11, re10, im10 in np.ndindex(*(2,) * 6):
        states.append(
            [
                [complex(0.5, z[im00]), complex(z[re01], z[im01])],
                [complex(z[re10], z[im10]), complex(0.5, z[im11])],
            ]
        )
    states.append([[complex(1.0, -0.0), complex(-0.0, 0.0)], [0.0, complex(-0.0, -0.0)]])
    return np.array(states)


HERMITIZED_STACKS = {
    "random": lambda: random_qubit_stack(np.random.default_rng(31), (7, 9)),
    "signed_zeros": signed_zero_states,
    "grid_8": lambda: reference_bloch_states(8),
    "grid_33": lambda: reference_bloch_states(33),
    "grid_64": lambda: reference_bloch_states(64),
}
SCAN_POINTS = [(0.0, 0.0), (0.0, 1e-11), (0.25, 0.0), (0.25, 3.3e-12), (2.0, 1e-11)]


@pytest.mark.parametrize("stack", HERMITIZED_STACKS)
@pytest.mark.parametrize(("g", "t"), SCAN_POINTS)
def test_entrywise_hermitization_has_the_matrix_bits(stack, g, t):
    rho = check_qubit_state(HERMITIZED_STACKS[stack]())
    for a in (rho, rho[0]):
        expect = reference_hermitize(channel._apply_single(a, 1.3e10, g, t))
        assert same_bits(channel._evolve_checked(a, 1.3e10, g, t), expect)
        assert same_bits(evolve_single(a, QubitParams(1.3e10), g, t), expect)


@pytest.mark.parametrize("stack", HERMITIZED_STACKS)
@pytest.mark.parametrize(("g", "t"), SCAN_POINTS)
def test_entrywise_lambda_norm_has_the_matrix_bits(stack, g, t):
    rho = check_qubit_state(HERMITIZED_STACKS[stack]())
    params = QubitParams(1.3e10)
    sigma = deviation(evolve_single(rho, params, g, t), evolve_single(rho, params, 0.0, t))
    for a in (sigma, sigma[0], sigma[-1]):
        expect = reference_lambda_norm(a)
        got = lambda_norm(a)
        assert type(got) is type(expect) and same_bits(got, expect)
        defect, trace_size = list(itertools.islice(channel._qubit_margins(a, 0.0), 2))
        assert defect == float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
        assert trace_size == float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())


@pytest.mark.parametrize(
    "spoil",
    [
        lambda s: s.__setitem__((3, 0, 0), s[3, 0, 0] + 2e-9j),
        lambda s: s.__setitem__((5, 0, 1), s[5, 0, 1] + 3e-10),
        lambda s: s.__setitem__((5, 1, 0), s[5, 1, 0] - 4e-10j),
        lambda s: s.__setitem__((2, 1, 1), s[2, 1, 1] + 1e-9),
        lambda s: s.__setitem__((slice(None), 0, 0), s[:, 0, 0] + 5e-12 - 1e-13j),
        lambda s: s.__setitem__((4, 1, 0), complex(math.nan, 0.0)),
        lambda s: s.__setitem__((6, 0, 0), math.inf),
        lambda s: s.__setitem__((1, 0, 1), complex(0.0, -math.inf)),
    ],
    ids=["diagonal_imaginary", "off_diagonal_real", "off_diagonal_imaginary",
         "traceful", "traceful_everywhere", "nan", "inf", "imaginary_minus_inf"],
)
def test_entrywise_lambda_norm_rejects_with_the_matrix_messages(spoil):
    rng = np.random.default_rng(32)
    params = QubitParams(1e10)
    rho = random_qubit_stack(rng, (8,))
    sigma = deviation(evolve_single(rho, params, 0.3, 1e-12), rho)
    spoil(sigma)
    with pytest.raises(InvalidState) as expect:
        reference_lambda_norm(sigma)
    with pytest.raises(InvalidState, match=f"^{re.escape(str(expect.value))}$"):
        lambda_norm(sigma)


def reference_scan(params, g_value, t, grid_size):
    # the parent's array scan, every 2 x 2 step in its full-matrix form
    rho0 = check_qubit_state(reference_bloch_states(grid_size))
    dephased = reference_hermitize(channel._apply_single(rho0, params.e_j, g_value, t))
    ideal = reference_hermitize(channel._apply_single(rho0, params.e_j, 0.0, t))
    sigma = check_qubit_state(dephased) - check_qubit_state(ideal)
    return rho0, dephased, ideal, max(0.0, float(reference_lambda_norm(sigma).max()))


@pytest.mark.parametrize("grid", [8, 33, 64])
@pytest.mark.parametrize(("g", "t"), SCAN_POINTS)
def test_bloch_scan_has_the_matrix_bits(monkeypatch, grid, g, t):
    checked = []
    original = channel.check_qubit_state

    def recording(rho):
        checked.append(np.array(rho))
        return original(rho)

    monkeypatch.setattr(channel, "check_qubit_state", recording)
    params = QubitParams(1.3e10)
    got = max_decoherence_numeric(params, g, t, grid)
    *states, expect = reference_scan(params, g, t, grid)
    assert got.hex() == expect.hex()
    # the initial states, then the dephased and the unitary outputs
    assert len(checked) == 3
    for seen, want in zip(checked, states):
        assert same_bits(seen, want)


def test_an_exponent_past_float_range_dephases_fully_without_a_warning():
    # -4 G overflows for G above 4.5e307: delta = exp(-inf) = 0, the result of
    # G = inf (full dephasing), with no overflow warning (an error here)
    plus = np.full((2, 2), 0.5, dtype=complex)
    params = QubitParams(1e10)
    full = evolve_single(plus, params, math.inf, 1e-12)
    past_range = evolve_single(plus, params, 1e308, 1e-12)
    assert np.array_equal(past_range, full)
    # a numpy scalar exponent gives the Python float's bits, as silently
    assert same_bits(evolve_single(plus, params, np.float64(1e308), 1e-12), past_range)
    assert max_decoherence_numeric(params, np.float64(1e308), 1e-12, 8) == (
        max_decoherence_numeric(params, 1e308, 1e-12, 8)
    )
    assert max_decoherence_analytic(1e308) == 0.5
    bell, ts = initial_state(1.0), np.array([0.0, 1e-12])
    states = evolve_pair(bell, params, params, np.array([0.0, 1e308]), np.array([0.0, 1e308]), ts)
    assert np.array_equal(states[1], evolve_pair(bell, params, params, math.inf, math.inf, 1e-12))
