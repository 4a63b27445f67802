import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubit_dephasing import entanglement
from qubit_dephasing.bath import OhmicBath, Temperature, g_ohmic_closed, suppression_factor
from qubit_dephasing.channel import QubitParams, check_pair_state, evolve_pair
from qubit_dephasing.entanglement import (
    PSD_SQRT_FLOOR,
    _psd_sqrt,
    analytic_bell_concurrence,
    analytic_bell_state,
    concurrence,
    family_concurrence,
    family_concurrence_rows,
    initial_state,
    spin_flip,
)
from qubit_dephasing.errors import InvalidState

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
FLIP = np.kron(SIGMA_Y, SIGMA_Y)

BELL_VECTORS = [
    np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
    np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
]


def random_pair_state(rng, rank=3):
    vecs = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    probs = rng.dirichlet(np.ones(rank))
    rho = np.zeros((4, 4), dtype=complex)
    for p, v in zip(probs, vecs):
        v = v / np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


def haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def concurrence_by_square_roots(rho):
    # independent route: eigenvalues of sqrtm(sqrtm(rho) rho_tilde sqrtm(rho))
    rho_tilde = FLIP @ rho.conj() @ FLIP
    root = scipy.linalg.sqrtm(rho)
    r = scipy.linalg.sqrtm(root @ rho_tilde @ root)
    lams = np.sort(np.linalg.eigvals(r).real)[::-1]
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def x_state_concurrence(alpha, delta1, delta2):
    # Exact concurrence of the dephased alpha-family states (real alpha >= 0),
    # assembled from the Kraus mixture by hand rather than through the channel:
    # with u_k = (1+delta_k)/2 and d_k = 1-u_k the output is an X state whose
    # blocks are convex mixes of (a^2, b^2), and Wootters reduces to two
    # 2x2 branches.
    a2 = 1.0 / (1.0 + alpha**2)
    b2 = alpha**2 / (1.0 + alpha**2)
    ab = alpha / (1.0 + alpha**2)
    u1, d1 = (1.0 + delta1) / 2.0, (1.0 - delta1) / 2.0
    u2, d2 = (1.0 + delta2) / 2.0, (1.0 - delta2) / 2.0
    keep, swap = u1 * u2 + d1 * d2, u1 * d2 + d1 * u2
    inner = ab * keep - math.sqrt(
        (u1 * d2 * a2 + d1 * u2 * b2) * (u1 * d2 * b2 + d1 * u2 * a2)
    )
    outer = ab * swap - math.sqrt(
        (u1 * u2 * a2 + d1 * d2 * b2) * (u1 * u2 * b2 + d1 * d2 * a2)
    )
    return 2.0 * max(0.0, inner, outer)


@pytest.mark.parametrize(
    "alpha,expect",
    [(0.0, 0.0), (1.0, 1.0), (2.0, 0.8), (3.0, 0.6)],
)
def test_initial_state_concurrence_examples(alpha, expect):
    assert concurrence(initial_state(alpha)) == pytest.approx(expect, abs=1e-10)


def test_initial_state_concurrence_random_weights():
    rng = np.random.default_rng(12)
    for _ in range(100):
        alpha = complex(rng.normal(), rng.normal()) * float(rng.uniform(0.1, 3.0))
        expect = 2.0 * abs(alpha) / (1.0 + abs(alpha) ** 2)
        assert concurrence(initial_state(alpha)) == pytest.approx(expect, abs=1e-10)


def test_initial_state_phase_of_alpha_is_irrelevant():
    for phi in (0.3, 1.2, 2.9):
        rotated = concurrence(initial_state(1.7 * np.exp(1j * phi)))
        assert rotated == pytest.approx(concurrence(initial_state(1.7)), abs=1e-12)


def test_spin_flip_fixes_maximally_mixed():
    quarter = 0.25 * np.eye(4, dtype=complex)
    np.testing.assert_allclose(spin_flip(quarter), quarter, atol=1e-14)


def test_spin_flip_fixes_bell_state():
    rho = initial_state(1.0)
    np.testing.assert_allclose(spin_flip(rho), rho, atol=1e-14)


def test_spin_flip_swaps_corner_projectors():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    rho11 = np.zeros((4, 4), dtype=complex)
    rho11[3, 3] = 1.0
    np.testing.assert_allclose(spin_flip(rho00), rho11, atol=1e-14)


def test_spin_flip_is_an_involution():
    rng = np.random.default_rng(13)
    rho = random_pair_state(rng)
    np.testing.assert_allclose(spin_flip(spin_flip(rho)), rho, atol=1e-13)


def test_product_states_have_zero_concurrence():
    rng = np.random.default_rng(14)
    for _ in range(20):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        rho = np.outer(v, v.conj())
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-8)


def test_bell_states_are_maximally_entangled():
    for vec in BELL_VECTORS:
        rho = np.outer(vec, vec.conj()).astype(complex)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 1.0 / 3.0, 0.5, 0.9])
def test_werner_state_concurrence(p):
    singlet = BELL_VECTORS[3]
    rho = p * np.outer(singlet, singlet.conj()) + (1.0 - p) * 0.25 * np.eye(4)
    expect = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert concurrence(rho) == pytest.approx(expect, abs=1e-10)


def test_concurrence_against_square_root_route():
    rng = np.random.default_rng(15)
    for _ in range(30):
        rho = random_pair_state(rng)
        assert concurrence(rho) == pytest.approx(
            concurrence_by_square_roots(rho), abs=1e-8
        )


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(16)
    rho = initial_state(2.0)
    base = concurrence(rho)
    for _ in range(50):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(base, abs=1e-9)


def test_concurrence_bounded_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        c = concurrence(random_pair_state(rng, rank=int(rng.integers(1, 5))))
        assert 0.0 <= c <= 1.0


def test_concurrence_rejects_invalid_input():
    with pytest.raises(InvalidState):
        concurrence(np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))
    with pytest.raises(InvalidState):
        concurrence(np.eye(4, dtype=complex))


def test_analytic_bell_state_at_time_zero_without_dephasing():
    np.testing.assert_allclose(
        analytic_bell_state(0.0, 0.0, 2e10, 0.0), initial_state(1.0), atol=1e-14
    )


def test_analytic_bell_state_strong_dephasing_limit():
    # x = exp(-4(g1+g2)) -> 0: the inner block settles at 1/4 and the corner
    # coherences saturate at 1/4 times the accumulated two-qubit phase.  The
    # state keeps coherences yet carries no entanglement at all.
    e_j_sum, t = 2e10, 1e-12
    rho = analytic_bell_state(20.0, 20.0, e_j_sum, t)
    expect = 0.25 * np.eye(4, dtype=complex)
    expect[1, 2] = expect[2, 1] = 0.25
    expect[0, 3] = 0.25 * np.exp(-0.5j * e_j_sum * t)
    expect[3, 0] = np.conj(expect[0, 3])
    np.testing.assert_allclose(rho, expect, atol=1e-10)
    assert concurrence(rho) <= 1e-12


def test_analytic_bell_state_is_valid_and_its_concurrence_matches():
    for g1 in np.linspace(0.0, 2.0, 9):
        for g2 in (0.0, 0.35, 1.1):
            rho = analytic_bell_state(float(g1), g2, 2e10, 2e-12)
            got = concurrence(rho)
            assert got == pytest.approx(analytic_bell_concurrence(float(g1), g2), abs=1e-10)


def test_evolved_bell_concurrence_factorizes():
    # the headline identity: C(t) = C(0) * delta_1(t) * delta_2(t)
    params = QubitParams(1e10)
    rho0 = initial_state(1.0)
    for g1, g2, t in [(0.0, 0.0, 1e-12), (0.1, 0.3, 2e-12), (0.8, 0.05, 5e-13)]:
        evolved = evolve_pair(rho0, params, params, g1, g2, t)
        expect = suppression_factor(g1) * suppression_factor(g2)
        assert concurrence(evolved) == pytest.approx(expect, abs=1e-10)


def test_evolved_x_state_concurrence_closed_form():
    params = QubitParams(1e10)
    for alpha in (0.5, 2.0, 3.0):
        rho0 = initial_state(alpha)
        for g1, g2 in [(0.01, 0.02), (0.2, 0.1), (1.0, 0.4)]:
            evolved = evolve_pair(rho0, params, params, g1, g2, 1.3e-12)
            expect = x_state_concurrence(
                alpha, suppression_factor(g1), suppression_factor(g2)
            )
            assert concurrence(evolved) == pytest.approx(expect, abs=1e-10)


def test_analytic_bell_state_rejects_negative_exponents():
    with pytest.raises(ValueError):
        analytic_bell_state(-0.1, 0.0, 2e10, 1e-12)
    with pytest.raises(ValueError):
        analytic_bell_concurrence(0.0, -0.1)


@pytest.mark.parametrize("g1,g2", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_analytic_bell_references_reject_nan_exponents(g1, g2):
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        analytic_bell_state(g1, g2, 2e10, 1e-12)
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        analytic_bell_concurrence(g1, g2)


@pytest.mark.parametrize("alpha", [complex("nan"), complex("inf"), 1e200, 1e308 + 1e308j])
def test_initial_state_rejects_non_finite_and_overflowing_alpha(alpha):
    with pytest.raises(ValueError):
        initial_state(alpha)


# -- concurrence of a stack ------------------------------------------------------


def reference_concurrence(rho):
    # concurrence of one matrix from two PSD roots, sqrt(rho) and
    # sqrt(rho_tilde), each from its own eigh: an independent form of the
    # one-root route the library takes
    a = check_pair_state(rho)
    rho_tilde = FLIP @ a.conj() @ FLIP
    mus = np.linalg.eigvals(a @ rho_tilde)
    if float(np.abs(mus.imag).max()) > 1e-8 or float(mus.real.min()) < -1e-10:
        raise InvalidState("rho * rho_tilde eigenvalues outside the rounding band")

    def psd_sqrt(m):
        w, v = np.linalg.eigh(m)
        w = np.where(w < PSD_SQRT_FLOOR * max(1.0, float(w.max())), 0.0, w)
        return (v * np.sqrt(w)) @ v.conj().T

    lams = np.linalg.svd(psd_sqrt(a) @ psd_sqrt(rho_tilde), compute_uv=False)
    value = float(lams[0] - lams[1] - lams[2] - lams[3])
    return min(1.0, max(0.0, value))


# largest gap to the two-root form measured on the inputs below: 1.0e-15
TWO_ROOT_GAP = 3e-15


@pytest.mark.parametrize("alpha", [1.0, 3.0, 0.6 - 1.3j, 1j])
@pytest.mark.parametrize("g_scale", [0.0, 0.7], ids=["zero_g", "finite_g"])
def test_stacked_concurrence_equals_per_matrix_reference(alpha, g_scale):
    rng = np.random.default_rng(31)
    p1, p2 = QubitParams(1e10), QubitParams(1.6e10)
    ts = np.linspace(0.0, 3e-10, 41)
    g1, g2 = g_scale * rng.uniform(size=41), g_scale * rng.uniform(size=41)
    states = evolve_pair(initial_state(alpha), p1, p2, g1, g2, ts)
    got = concurrence(states)
    assert got.shape == (41,)
    per_matrix = [concurrence(rho) for rho in states]
    assert got.tobytes() == np.array(per_matrix).tobytes()
    expect = [reference_concurrence(rho) for rho in states]
    np.testing.assert_allclose(per_matrix, expect, rtol=0, atol=TWO_ROOT_GAP)
    assert isinstance(concurrence(states[3]), float)


def test_stacked_concurrence_of_random_states_and_nested_stacks():
    rng = np.random.default_rng(32)
    states = np.array(
        [random_pair_state(rng, rank=int(rng.integers(1, 5))) for _ in range(60)]
        + [np.outer(v, v.conj()) for v in BELL_VECTORS]
    )
    per_matrix = [concurrence(rho) for rho in states]
    assert concurrence(states).tobytes() == np.array(per_matrix).tobytes()
    nested = concurrence(states.reshape(8, 8, 4, 4))
    assert nested.reshape(-1).tobytes() == np.array(per_matrix).tobytes()
    expect = [reference_concurrence(rho) for rho in states]
    np.testing.assert_allclose(per_matrix, expect, rtol=0, atol=TWO_ROOT_GAP)


def test_psd_sqrt_floor_is_per_matrix():
    # a tiny eigenvalue of a low-weight matrix survives next to a matrix with
    # a larger top eigenvalue: each root sees only its own spectrum
    big = np.diag([3.0, 1e-15, 0.0, 0.0]).astype(complex)
    small = np.diag([0.5, 0.5, 2e-14, 0.0]).astype(complex)
    roots = _psd_sqrt(np.array([big, small]))
    np.testing.assert_array_equal(roots[0].diagonal().real, [math.sqrt(3.0), 0.0, 0.0, 0.0])
    assert roots[1][2, 2].real == math.sqrt(2e-14)


def test_stacked_concurrence_rejects_a_stack_with_one_bad_state():
    states = np.array([initial_state(1.0), np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)])
    with pytest.raises(InvalidState, match="negative eigenvalue"):
        concurrence(states)
    with pytest.raises(InvalidState, match="expected a 4x4 matrix"):
        concurrence(np.zeros((0, 4, 4), dtype=complex))


def test_stacked_concurrence_screen_reports_the_worst_matrix(monkeypatch):
    def skewed(m):
        mus = np.linalg.eigvals(m)
        mus[1, 0] += 3e-8j  # the second matrix of the stack only
        return mus

    monkeypatch.setattr(entanglement, "general_eigenvalues", skewed)
    states = np.array([initial_state(1.0)] * 3)
    with pytest.raises(InvalidState, match="max \\|imag\\| 3.000e-08"):
        concurrence(states)


# -- pair-channel properties -------------------------------------------------------

pair_properties = settings(derandomize=True, max_examples=60, deadline=None)
complex_alphas = st.builds(
    complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)
).filter(lambda a: abs(a) > 1e-3)
exponents = st.floats(0.0, 1.5)
tunneling = st.floats(1e9, 5e10)
times = st.floats(0.0, 2e-10)


def x_state_formula(rho):
    # concurrence of an X state from its entries
    inner = abs(rho[1, 2]) - math.sqrt(rho[0, 0].real * rho[3, 3].real)
    outer = abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real)
    return 2.0 * max(0.0, inner, outer)


@pair_properties
@given(complex_alphas, exponents, exponents, tunneling, tunneling, times)
def test_pair_outputs_are_states_below_the_product_bound(alpha, g1, g2, e1, e2, t):
    rho = evolve_pair(initial_state(alpha), QubitParams(e1), QubitParams(e2), g1, g2, t)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    c0 = 2.0 * abs(alpha) / (1.0 + abs(alpha) ** 2)
    bound = c0 * suppression_factor(g1) * suppression_factor(g2)
    c_t = concurrence(rho)
    assert c_t <= bound + 1e-12
    assert abs(c_t - x_state_formula(rho)) <= 1e-12


@pair_properties
@given(st.sampled_from([1.0, -1.0]), exponents, exponents, tunneling, times)
def test_real_maximally_entangled_pair_meets_the_product(alpha, g1, g2, e_j, t):
    # equality needs one tunneling energy on both qubits once t > 0
    p = QubitParams(e_j)
    c_t = concurrence(evolve_pair(initial_state(alpha), p, p, g1, g2, t))
    assert abs(c_t - suppression_factor(g1) * suppression_factor(g2)) <= 1e-10


# -- closed-form concurrence of the evolved family ---------------------------------


@pair_properties
@given(complex_alphas, exponents, exponents, tunneling, tunneling, times)
def test_family_concurrence_is_wootters_on_the_evolved_state(alpha, g1, g2, e1, e2, t):
    assume(g1 != g2 and e1 != e2)
    p1, p2 = QubitParams(e1), QubitParams(e2)
    c_t = family_concurrence(alpha, p1, p2, g1, g2, t)
    assert isinstance(c_t, float)
    wootters = concurrence(evolve_pair(initial_state(alpha), p1, p2, g1, g2, t))
    assert abs(c_t - wootters) <= 1e-12


@pair_properties
@given(st.sampled_from([1.0, -1.0]), exponents, exponents, tunneling, times)
def test_family_concurrence_meets_the_product_at_real_maximal_entanglement(
    alpha, g1, g2, e_j, t
):
    p = QubitParams(e_j)
    c_t = family_concurrence(alpha, p, p, g1, g2, t)
    assert abs(c_t - suppression_factor(g1) * suppression_factor(g2)) <= 1e-15


def test_family_concurrence_of_a_grid_equals_its_points_bit_for_bit():
    rng = np.random.default_rng(5)
    p1, p2 = QubitParams(1e10), QubitParams(1.6e10)
    ts = np.linspace(0.0, 3e-10, 41)
    g1, g2 = rng.uniform(0.0, 1.5, size=(2, 41))
    got = family_concurrence(0.6 - 1.3j, p1, p2, g1, g2, ts)
    assert got.shape == (41,)
    points = [family_concurrence(0.6 - 1.3j, p1, p2, *x) for x in zip(g1, g2, ts)]
    assert got.tobytes() == np.array(points).tobytes()


@pytest.mark.parametrize(
    ("g", "t", "e_j"),
    [
        (-0.1, 1e-12, 1e10),
        (math.nan, 1e-12, 1e10),
        (0.1, -1e-12, 1e10),
        (0.1, math.nan, 1e10),
        (0.1, math.inf, 1e10),
        (0.1, 1e10, 1e300),  # e_j t overflows
    ],
)
def test_family_concurrence_rejects_bad_exponents_times_and_phases(g, t, e_j):
    p = QubitParams(e_j)
    with pytest.raises(ValueError):
        family_concurrence(2.0, p, p, g, 0.1, t)
    with pytest.raises(ValueError):
        family_concurrence(2.0, p, p, [0.1, g], [0.1, 0.1], [0.0, t])


@pytest.mark.parametrize("alpha", [complex("nan"), 1e200])
def test_family_concurrence_rejects_the_alphas_initial_state_rejects(alpha):
    p = QubitParams(1e10)
    with pytest.raises(ValueError):
        family_concurrence(alpha, p, p, 0.1, 0.1, 1e-12)


@pytest.mark.parametrize(
    ("name", "limit", "message"),
    [("TRACE_TOL", -1.0, "trace differs from one by "), ("PAIR_PSD_FLOOR", 1.0, "negative eigenvalue ")],
    ids=["trace", "eigenvalue"],
)
def test_family_concurrence_validates_every_point_and_names_the_worst(
    monkeypatch, name, limit, message
):
    # limits no state meets: the value in each message is that point's margin
    monkeypatch.setattr(entanglement, name, limit)
    p1, p2 = QubitParams(1e10), QubitParams(1.6e10)
    ts, gs = [2e-10, 1e-10, 0.0], [0.9, 0.3, 0.0]
    margins = []
    for g, t in zip(gs, ts):
        with pytest.raises(InvalidState, match=f"^{message}") as point:
            family_concurrence(3.0, p1, p2, g, g, t)
        margins.append(float(str(point.value).rsplit(" ", 1)[1]))
    worst = max(margins) if name == "TRACE_TOL" else min(margins)
    with pytest.raises(InvalidState, match=re.escape(f"{message}{worst:.3e}")):
        family_concurrence(3.0, p1, p2, gs, gs, ts)


# -- the stacked kernel over alpha -------------------------------------------------


@pytest.mark.parametrize("beta", [None, 2e-12], ids=["zero", "finite"])
def test_stacked_rows_equal_the_per_alpha_calls_bit_for_bit(beta):
    # complex alphas, unequal tunneling energies, and a bath per qubit
    alphas = [1.0, 2.0, 3.0, 0.6 - 1.3j, -2.5 + 0.4j, 1j]
    ts = np.linspace(0.0, 2e-11, 57)
    g1 = g_ohmic_closed(OhmicBath(0.02, 1e12), Temperature(beta), ts)
    g2 = g_ohmic_closed(OhmicBath(0.05, 4e11), Temperature(beta), ts)
    p1, p2 = QubitParams(1e10), QubitParams(1.7e10)
    rows = family_concurrence_rows(alphas, p1, p2, g1, g2, ts)
    assert isinstance(rows, np.ndarray) and rows.shape == (len(alphas), ts.size)
    for alpha, row in zip(alphas, rows):
        alone = family_concurrence(alpha, p1, p2, g1, g2, ts)
        assert np.count_nonzero((alone > 0.0) & (alone < 1.0)) > 10
        assert list(map(float.hex, row.tolist())) == list(map(float.hex, alone.tolist()))


def test_stacked_rows_raise_the_first_failing_rows_own_margin(monkeypatch):
    # lowest block eigenvalues 7.354e-02, 4.276e-02 and 8.405e-03 for alpha
    # 3, 2 and 1: a floor between the first two fails the second and third
    # rows, and the stacked call raises the second's own margin, the text of
    # its single-alpha call, not the stack's worst
    monkeypatch.setattr(entanglement, "PAIR_PSD_FLOOR", 0.05)
    p1, p2 = QubitParams(1e10), QubitParams(1.6e10)
    ts, gs = [1e-10, 2e-10], [0.3, 0.9]
    family_concurrence(3.0, p1, p2, gs, gs, ts)
    with pytest.raises(InvalidState) as alone:
        family_concurrence(2.0, p1, p2, gs, gs, ts)
    assert str(alone.value) == "negative eigenvalue 4.276e-02"
    with pytest.raises(InvalidState, match=f"^{re.escape(str(alone.value))}$"):
        family_concurrence_rows([3.0, 2.0, 1.0], p1, p2, gs, gs, ts)
