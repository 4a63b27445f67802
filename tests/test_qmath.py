import math

import numpy as np
import pytest

from qubit_dephasing.errors import (
    DimensionTooLarge,
    NonHermitian,
    ToleranceNotMet,
)
from qubit_dephasing.qmath import (
    QuadratureSpec,
    adaptive_quadrature,
    general_eigenvalues,
    hermitian_eigenvalues,
    hermitian_spectrum,
    matrix_exponential,
    semi_infinite_cutoff,
    spectral_propagator,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_hermitian_eigenvalues_pauli_x():
    np.testing.assert_allclose(hermitian_eigenvalues(SIGMA_X), [-1.0, 1.0], atol=1e-14)


def test_hermitian_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    w = hermitian_eigenvalues(h)
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(w.sum(), h.trace().real, atol=1e-10)


def test_hermitian_eigenvalues_accepts_defect_within_tol():
    m = np.array([[1.0, 1e-12], [0.0, 2.0]])
    np.testing.assert_allclose(hermitian_eigenvalues(m), [1.0, 2.0], atol=1e-9)


def test_hermitian_eigenvalues_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_general_eigenvalues_jordan_block():
    # defective matrix: both eigenvalues zero, no eigenbasis
    w = general_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(np.sort_complex(w), [0.0, 0.0], atol=1e-12)


def test_general_eigenvalues_matches_hermitian_path():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = a + a.conj().T
    herm = hermitian_eigenvalues(h)
    gen = np.sort(general_eigenvalues(h).real)
    np.testing.assert_allclose(gen, herm, atol=1e-9)


def test_general_eigenvalues_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        general_eigenvalues(np.eye(9))


def test_matrix_exponential_pauli_x_quarter_period():
    # exp(-i sx pi/2) = -i sx
    u = matrix_exponential(SIGMA_X, math.pi / 2.0)
    np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-12)


def test_matrix_exponential_diagonal_generator():
    d = np.array([1.0, -2.0, 0.5])
    u = matrix_exponential(np.diag(d), 0.7)
    np.testing.assert_allclose(u, np.diag(np.exp(-1j * d * 0.7)), atol=1e-13)


def test_matrix_exponential_is_unitary_group():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a + a.conj().T
    u1 = matrix_exponential(h, 0.3)
    u2 = matrix_exponential(h, 0.45)
    u12 = matrix_exponential(h, 0.75)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(u1 @ u2, u12, atol=1e-9)


def test_matrix_exponential_nonhermitian_generator():
    # nilpotent generator: exp(-i N t) = 1 - i N t exactly
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    u = matrix_exponential(n, 0.8)
    np.testing.assert_allclose(u, np.eye(2) - 0.8j * n, atol=1e-12)


def test_matrix_exponential_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        matrix_exponential(np.eye(1025), 1.0)


def test_matrix_exponential_is_the_spectral_propagator_bit_for_bit():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = a + a.conj().T
    spectrum = hermitian_spectrum(h)
    for t in (0.0, 0.3, -1.7, 25.0):
        assert np.array_equal(matrix_exponential(h, t), spectral_propagator(spectrum, t))


def test_non_hermitian_generator_has_no_spectrum_and_goes_through_expm(monkeypatch):
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm

    def counted(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermitian_spectrum(n) is None
    u = matrix_exponential(n, 0.8)
    assert len(calls) == 1
    assert np.array_equal(u, expm(-0.8j * n.astype(complex)))


@pytest.mark.parametrize(
    "m,error",
    [
        (np.ones((2, 3)), ValueError),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), ValueError),
        (np.eye(1025), DimensionTooLarge),
    ],
    ids=["not_square", "not_finite", "too_large"],
)
def test_hermitian_spectrum_checks_its_generator(m, error):
    with pytest.raises(error):
        hermitian_spectrum(m)
    with pytest.raises(error):
        matrix_exponential(m, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_spectral_propagator_rejects_non_finite_times(t):
    with pytest.raises(ValueError, match="t must be finite"):
        spectral_propagator(hermitian_spectrum(SIGMA_X), t)
    with pytest.raises(ValueError, match="t must be finite"):
        matrix_exponential(SIGMA_X, t)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(1.0, 0.0, 1e-8, 1e-12, 50)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, -1e-8, 1e-12, 50)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, 1e-8, 1e-12, 0)


def test_semi_infinite_cutoff_value():
    # scale * ln(1/tol) + 40 * scale
    got = semi_infinite_cutoff(1.0, 1e-30)
    assert got == pytest.approx(30.0 * math.log(10.0) + 40.0, rel=1e-15)
    assert semi_infinite_cutoff(2.0, 1e-30) == pytest.approx(2.0 * got, rel=1e-15)


def test_adaptive_quadrature_exponential_tail():
    spec = QuadratureSpec(0.0, math.inf, 1e-10, 1e-14, 200)
    got = adaptive_quadrature(lambda x: math.exp(-x), spec, envelope_scale=1.0)
    assert got == pytest.approx(1.0, rel=1e-8)


def test_adaptive_quadrature_requires_envelope_for_infinite_bound():
    spec = QuadratureSpec(0.0, math.inf, 1e-10, 1e-14, 200)
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: math.exp(-x), spec)


def test_adaptive_quadrature_gaussian():
    spec = QuadratureSpec(0.0, math.inf, 1e-12, 1e-14, 200)
    got = adaptive_quadrature(lambda x: math.exp(-x * x), spec, envelope_scale=1.0)
    assert got == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)


@pytest.mark.parametrize("degree", range(7))
def test_adaptive_quadrature_monomials(degree):
    spec = QuadratureSpec(0.0, 2.0, 1e-12, 1e-14, 100)
    got = adaptive_quadrature(lambda x: x**degree, spec)
    assert got == pytest.approx(2.0 ** (degree + 1) / (degree + 1), rel=1e-10)


def test_adaptive_quadrature_budget_exhausted():
    spec = QuadratureSpec(0.0, 10.0, 1e-12, 1e-14, 1)
    with pytest.raises(ToleranceNotMet):
        adaptive_quadrature(lambda x: math.cos(1000.0 * x), spec)
