"""Dense complex linear algebra and adaptive quadrature.

Matrices are plain ``numpy.ndarray`` objects with complex entries. The
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
    "semi_infinite_cutoff",
    "spectral_propagator",
]

# Dimension cap for hermitian_spectrum and matrix_exponential; guards
# brute-force memory use.
MAX_EXPONENTIAL_DIM = 1024

# Size cap for general (non-normal) eigenvalue extraction.
MAX_GENERAL_EIG_DIM = 8


def _as_square(m, stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    square = a.ndim >= 2 and a.shape[-1] == a.shape[-2]
    if not square or (a.ndim > 2 and not stack):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def hermitian_eigenvalues(m, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Parameters
    ----------
    m : array_like
        Square matrix with ``max|m - m^dagger| <= tol``.
    tol : float
        Allowed Hermiticity defect of the input.

    Returns
    -------
    ndarray of float
        All eigenvalues in ascending order.

    Raises
    ------
    NonHermitian
        If the symmetry precondition fails.
    NoConvergence
        If the underlying solver does not converge.
    """
    a = _as_square(m)
    defect = _hermiticity_defect(a)
    if defect > tol:
        raise NonHermitian(
            f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
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

    Checks ``m`` as :func:`matrix_exponential` does and returns ``None``
    when its Hermiticity defect exceeds ``1e-12 * max(1, max|m|)``; such a
    generator has no spectral propagator. Pass the result to
    :func:`spectral_propagator` to build ``exp(-i m t)`` at any ``t``.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > MAX_EXPONENTIAL_DIM:
        raise DimensionTooLarge(f"dimension {n} exceeds cap {MAX_EXPONENTIAL_DIM}")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if _hermiticity_defect(a) > 1e-12 * max(1.0, scale):
        return None
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def spectral_propagator(spectrum, t: float) -> np.ndarray:
    """Propagator ``exp(-i m t)`` from ``spectrum = hermitian_spectrum(m)``."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    w, v = spectrum
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def matrix_exponential(m, t: float) -> np.ndarray:
    """Propagator ``exp(-i * m * t)``.

    Hermitian generators take the spectral route (:func:`hermitian_spectrum`
    then :func:`spectral_propagator`), which keeps the result unitary to
    machine precision; anything else falls back to the general dense
    exponential.
    """
    spectrum = hermitian_spectrum(m)
    if spectrum is not None:
        return spectral_propagator(spectrum, t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    import scipy.linalg  # deferred: scipy would dominate the package import

    return scipy.linalg.expm(-1j * t * np.asarray(m, dtype=complex))


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request for :func:`adaptive_quadrature`.

    ``upper`` may be ``math.inf``; integration then needs the scale of the
    integrand's exponential envelope so the tail can be cut off where it
    drops below ``abs_tol`` (see :func:`semi_infinite_cutoff`).
    """

    lower: float
    upper: float
    rel_tol: float
    abs_tol: float
    max_subdivisions: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("lower bound must lie below upper bound")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


def semi_infinite_cutoff(envelope_scale: float, abs_tol: float) -> float:
    """Finite stand-in for an infinite upper integration bound.

    For integrands bounded by ``exp(-x / envelope_scale)`` the envelope
    falls below ``abs_tol`` at ``scale * ln(1 / abs_tol)``; a 40-scale
    safety margin is added on top, so the discarded tail is negligible
    against the requested accuracy.
    """
    if envelope_scale <= 0.0:
        raise ValueError("envelope_scale must be positive")
    return envelope_scale * math.log(1.0 / abs_tol) + 40.0 * envelope_scale


def adaptive_quadrature(
    f: Callable[[float], float],
    spec: QuadratureSpec,
    envelope_scale: float | None = None,
) -> float:
    """Integrate ``f`` over ``[spec.lower, spec.upper]``.

    Parameters
    ----------
    f : callable
        Real-valued integrand, finite on the integration interval.
    spec : QuadratureSpec
        Bounds, tolerances, and the subdivision budget.
    envelope_scale : float, optional
        Required when ``spec.upper`` is infinite; the bound is then
        replaced by :func:`semi_infinite_cutoff` of this scale.

    Returns
    -------
    float
        Integral estimate whose reported error is at most
        ``max(abs_tol, rel_tol * |result|)``.

    Raises
    ------
    ToleranceNotMet
        If the subdivision budget is exhausted or the error estimate
        misses the requested tolerance.
    """
    upper = spec.upper
    if math.isinf(upper):
        if envelope_scale is None:
            raise ValueError("an infinite upper bound requires envelope_scale")
        upper = semi_infinite_cutoff(envelope_scale, spec.abs_tol)
    import scipy.integrate  # deferred: scipy would dominate the package import

    out = scipy.integrate.quad(
        f,
        spec.lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
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
