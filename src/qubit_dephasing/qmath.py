"""Dense complex linear algebra and adaptive quadrature.

Matrices are plain ``numpy.ndarray`` objects with complex entries;
:func:`hermitian_spectrum` keeps a real symmetric generator real. The
analytic path of the library works on 2x2 and 4x4 matrices, the
brute-force reference path on a few hundred dimensions at most, so
everything here is dense and double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionTooLarge, NoConvergence, NonHermitian, ToleranceNotMet

__all__ = [
    "MAX_EXPONENTIAL_DIM",
    "MAX_GENERAL_EIG_DIM",
    "QuadratureSpec",
    "adaptive_quadrature",
    "general_eigenvalues",
    "hermitian_eigenvalues",
    "hermitian_spectrum",
    "matrix_exponential",
    "spectral_phases",
    "spectral_propagator",
]

# Dimension cap for hermitian_spectrum and matrix_exponential; guards
# brute-force memory use.
MAX_EXPONENTIAL_DIM = 1024

# Size cap for general (non-normal) eigenvalue extraction.
MAX_GENERAL_EIG_DIM = 8


def _as_square(m, stack: bool = False, dtype=complex) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    square = a.ndim >= 2 and a.shape[-1] == a.shape[-2]
    if not square or (a.ndim > 2 and not stack):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _check_hermitian(a: np.ndarray, limit: float) -> None:
    # NonHermitian, naming the defect max|a - a^dagger|, when it exceeds limit
    defect = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if defect > limit:
        raise NonHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance {limit:.3e}")


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises ``NonHermitian`` when the Hermiticity defect ``max|m -
    m^dagger|`` exceeds 1e-10, and ``NoConvergence`` when the solver does
    not converge.
    """
    a = _as_square(m)
    _check_hermitian(a, 1e-10)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def general_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a small square matrix, with multiplicity, unordered.

    Intended for products of density matrices, which are not Hermitian in
    general; the size cap keeps this on the analytic (at most two-qubit)
    path. A stack ``(..., n, n)`` gives the eigenvalues of each matrix,
    shape ``(..., n)``.
    """
    a = _as_square(m, stack=True)
    if a.shape[-1] > MAX_GENERAL_EIG_DIM:
        raise DimensionTooLarge(
            f"dimension {a.shape[-1]} exceeds cap {MAX_GENERAL_EIG_DIM}"
        )
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_spectrum(m):
    """Eigenvalues and eigenvectors ``(w, v)`` of a Hermitian generator.

    Raises ``NonHermitian``, with the defect in its message, when the
    Hermiticity defect of ``m`` exceeds ``1e-12 * max(1, max|m|)``. A real
    ``m`` is diagonalized as a real symmetric matrix, so its eigenvectors
    ``v`` are float64. Pass the result to :func:`spectral_propagator` to
    build ``exp(-i m t)`` at any ``t``, or its eigenvalues to
    :func:`spectral_phases`.
    """
    a = _as_square(m, dtype=float if np.isrealobj(m) else complex)
    n = a.shape[0]
    if n > MAX_EXPONENTIAL_DIM:
        raise DimensionTooLarge(f"dimension {n} exceeds cap {MAX_EXPONENTIAL_DIM}")
    _check_hermitian(a, 1e-12 * max(1.0, float(np.abs(a).max()) if a.size else 0.0))
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def spectral_phases(w: np.ndarray, t: float) -> np.ndarray:
    """Phase factors ``exp(-i w t)`` of the eigenvalues ``w`` of a spectrum.

    Raises ``ValueError`` when ``t`` is not finite, and ``ToleranceNotMet``
    naming ``t`` when a phase ``w t`` is not finite.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if w.size and not math.isfinite(float(np.abs(w).max()) * t):
        raise ToleranceNotMet(f"at t = {t:.6e} s: phase w t is not finite")
    return np.exp(-1j * w * t)


def spectral_propagator(spectrum, t: float) -> np.ndarray:
    """Propagator ``exp(-i m t)`` from ``spectrum = hermitian_spectrum(m)``.

    Checks ``t`` as :func:`spectral_phases` does.
    """
    w, v = spectrum
    return (v * spectral_phases(w, t)) @ v.conj().T


def matrix_exponential(m, t: float) -> np.ndarray:
    """Propagator ``exp(-i * m * t)`` of a Hermitian generator ``m``.

    :func:`hermitian_spectrum` then :func:`spectral_propagator`, which keeps
    the result unitary to machine precision; a non-Hermitian ``m`` raises
    ``NonHermitian``.
    """
    return spectral_propagator(hermitian_spectrum(m), t)


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request for :func:`adaptive_quadrature`: finite bounds
    ``lower < upper``, positive tolerances and a subdivision budget."""

    lower: float
    upper: float
    rel_tol: float
    abs_tol: float
    max_subdivisions: int

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError("lower bound must lie below upper bound")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


def adaptive_quadrature(
    f: Callable[[float], float], spec: QuadratureSpec, points=()
) -> float:
    """Integrate the real ``f`` over ``[spec.lower, spec.upper]``.

    The ``points`` strictly inside the interval, where ``f`` changes scale,
    split it before the adaptive subdivision starts. The result's reported
    error is at most ``max(abs_tol, rel_tol * |result|)``; when the
    subdivision budget runs out, or the estimate misses that tolerance,
    this raises ``ToleranceNotMet``.
    """
    import scipy.integrate  # deferred: scipy would dominate the package import

    inside = sorted(x for x in points if spec.lower < x < spec.upper)
    out = scipy.integrate.quad(
        f,
        spec.lower,
        spec.upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        points=inside or None,
        full_output=1,
    )
    result, estimate = float(out[0]), float(out[1])
    if len(out) > 3:  # quad appends an explanation only on trouble
        raise ToleranceNotMet(str(out[3]).replace("\n", " ").strip())
    if estimate > max(spec.abs_tol, spec.rel_tol * abs(result)):
        raise ToleranceNotMet(
            f"error estimate {estimate:.3e} exceeds requested tolerance "
            f"(abs {spec.abs_tol:.1e}, rel {spec.rel_tol:.1e})"
        )
    return result
