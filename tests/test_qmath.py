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
    spectral_phases,
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
    message = r"^hermiticity defect 1\.000e\+00 exceeds tolerance 1\.000e-10$"
    with pytest.raises(NonHermitian, match=message):
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
    # a nilpotent generator has no spectral propagator
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitian):
        matrix_exponential(n, 0.8)


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


def test_non_hermitian_generator_raises_with_its_defect():
    # the defect, 1, against the gate 1e-12 * max(1, max|m|)
    n = np.array([[0.0, 2.0], [1.0, 0.0]])
    message = r"^hermiticity defect 1\.000e\+00 exceeds tolerance 2\.000e-12$"
    with pytest.raises(NonHermitian, match=message):
        hermitian_spectrum(n)
    with pytest.raises(NonHermitian, match=message):
        matrix_exponential(n, 0.8)


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


def test_spectral_propagator_names_t_when_a_phase_overflows():
    # finite t, but w t = 2e308 is beyond float range
    spectrum = hermitian_spectrum(2.0 * SIGMA_X)
    message = r"^at t = 1\.000000e\+308 s: phase w t is not finite$"
    with pytest.raises(ToleranceNotMet, match=message):
        spectral_propagator(spectrum, 1e308)
    with pytest.raises(ToleranceNotMet, match=message):
        matrix_exponential(2.0 * SIGMA_X, 1e308)
    assert np.isfinite(spectral_propagator(spectrum, 5e307)).all()


def real_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def test_real_symmetric_input_keeps_a_real_spectrum():
    h = real_symmetric(9, 41)
    w, v = hermitian_spectrum(h)
    assert w.dtype == np.float64 and v.dtype == np.float64
    w_complex, _ = hermitian_spectrum(h.astype(complex))
    scale = float(np.abs(h).max())
    np.testing.assert_allclose(w, w_complex, rtol=0.0, atol=1e-14 * scale)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, h, rtol=0.0, atol=1e-13 * scale)
    # integer input takes the real path as well
    assert hermitian_spectrum(np.array([[2, 1], [1, 2]]))[1].dtype == np.float64


def test_real_asymmetric_input_has_no_spectrum():
    h = real_symmetric(5, 42)
    h[0, 3] += 1e-9  # defect 1e-9, above the 1e-12 * max|m| gate
    with pytest.raises(NonHermitian, match=r"^hermiticity defect 1\.000e-09 "):
        hermitian_spectrum(h)
    h[0, 3] -= 1e-9 - 1e-15  # a defect within the gate is accepted
    w, v = hermitian_spectrum(h)
    assert w.shape == (5,) and v.shape == (5, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_real_non_finite_input_raises(bad):
    h = real_symmetric(4, 43)
    h[1, 2] = h[2, 1] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        hermitian_spectrum(h)


def test_propagator_from_a_real_spectrum_equals_the_complex_one():
    # a displaced-ladder generator omega n + g (b + b^dag), the form of the
    # oracle's one-mode terms: the real and complex eigh give equal bits here.
    # For dense random matrices the two reductions differ, and the
    # propagators only agree to about 2e-14 (9 x 9, seeds 40-239, |w t| <= 60)
    n = 12
    coupling = 0.3 * np.sqrt(np.arange(1.0, n))
    h = np.diag(np.arange(float(n))) + np.diag(coupling, 1) + np.diag(coupling, -1)
    real, complex_ = hermitian_spectrum(h), hermitian_spectrum(h.astype(complex))
    for t in (0.0, 0.3, -1.7, 25.0):
        got = spectral_propagator(real, t)
        np.testing.assert_allclose(
            got, spectral_propagator(complex_, t), rtol=0.0, atol=1e-15
        )
    dense = real_symmetric(9, 44) / 9.0
    real = hermitian_spectrum(dense)
    complex_ = hermitian_spectrum(dense.astype(complex))
    for t in (0.0, 0.3, -1.7, 25.0):
        np.testing.assert_allclose(
            spectral_propagator(real, t),
            spectral_propagator(complex_, t),
            rtol=0.0,
            atol=1e-13,
        )


def test_spectral_phases_are_the_propagator_eigenvalues():
    w, v = hermitian_spectrum(real_symmetric(6, 45))
    for t in (0.0, 0.3, 25.0):
        phases = spectral_phases(w, t)
        assert np.array_equal(phases, np.exp(-1j * w * t))
        assert np.array_equal(spectral_propagator((w, v), t), (v * phases) @ v.T)
    with pytest.raises(ValueError, match="t must be finite"):
        spectral_phases(w, math.nan)
    with pytest.raises(ToleranceNotMet, match=r"^at t = 1\.000000e\+308 s: phase"):
        spectral_phases(np.array([2.0]), 1e308)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(1.0, 0.0, 1e-8, 1e-12, 50)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, -1e-8, 1e-12, 50)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, 1e-8, 1e-12, 0)


def test_adaptive_quadrature_exponential_tail():
    # exp(-x) over [0, 80]: the tail beyond is 1.8e-35
    spec = QuadratureSpec(0.0, 80.0, 1e-10, 1e-14, 200)
    got = adaptive_quadrature(lambda x: math.exp(-x), spec)
    assert got == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_quadrature_spec_rejects_a_non_finite_bound(bound):
    with pytest.raises(ValueError, match="^bounds must be finite$"):
        QuadratureSpec(0.0, bound, 1e-10, 1e-14, 200)
    with pytest.raises(ValueError, match="^bounds must be finite$"):
        QuadratureSpec(bound, 1.0, 1e-10, 1e-14, 200)


def test_adaptive_quadrature_gaussian():
    # exp(-x^2) over [0, 12]: the tail beyond is 2e-64
    spec = QuadratureSpec(0.0, 12.0, 1e-12, 1e-14, 200)
    got = adaptive_quadrature(lambda x: math.exp(-x * x), spec)
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
