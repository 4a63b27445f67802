"""Decoherence exponents of bosonic dephasing baths.

The exponent ``G(t)`` controls the coherence suppression factor
``delta(t) = exp(-4 G(t))`` of a qubit dephasing in a bosonic bath.
Discrete baths evaluate a mode sum, the Ohmic continuum the matching
frequency integral with an exponential cutoff.

Conventions: ``hbar = k_B = 1``; every frequency (mode, cutoff, coupling)
is angular, in rad/s; time is in seconds; the inverse temperature ``beta``
therefore carries seconds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .qmath import QuadratureSpec, adaptive_quadrature, semi_infinite_cutoff

__all__ = [
    "DiscreteBath",
    "OhmicBath",
    "Temperature",
    "default_quadrature",
    "g_discrete",
    "g_ohmic",
    "g_ohmic_closed",
    "suppression_factor",
]

# Fraction of the cutoff below which the Ohmic integrand switches to its
# analytic small-frequency limit (the 0/0 at the origin is removable).
SMALL_FREQUENCY_FRACTION = 1e-8

# Below this |omega_c t| the square (omega_c t)^2 stays in float range.
_PHASE_LIMIT = math.sqrt(sys.float_info.max)
# The Matsubara sum adds its terms one by one up to z + n = 32, then an
# Euler-Maclaurin tail; B_2j / (2j)! for j = 1..4 weight its corrections.
_DIRECT_UNTIL = 32.0
_EULER_MACLAURIN = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


@dataclass(frozen=True)
class Temperature:
    """Bath temperature ``1/beta``; ``beta = None`` is exactly zero."""

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not self.beta > 0.0:
            raise ValueError("finite temperature requires beta > 0")

    @classmethod
    def zero(cls) -> "Temperature":
        return cls()

    @classmethod
    def finite(cls, beta: float) -> "Temperature":
        return cls(float(beta))


@dataclass(frozen=True)
class DiscreteBath:
    """Finite list of bath modes ``(omega_k, g_k)``.

    Frequencies are strictly positive; couplings are complex, but only
    ``|g_k|^2`` enters the exponent.
    """

    modes: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        modes = tuple((float(w), complex(g)) for w, g in self.modes)
        if not modes:
            raise ValueError("mode list must be non-empty")
        if any(w <= 0.0 for w, _ in modes):
            raise ValueError("mode frequencies must be strictly positive")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic continuum with spectral density ``eta * omega * exp(-omega/omega_c)``."""

    eta: float
    omega_c: float

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if not self.omega_c > 0.0:
            raise ValueError("omega_c must be positive")


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be nonnegative")


def g_discrete(bath: DiscreteBath, temp: Temperature, t: float) -> float:
    """Decoherence exponent of a discrete bath at time ``t``.

    G(t) = 2 sum_k |g_k|^2 / omega_k^2 * sin^2(omega_k t / 2) * coth(beta omega_k / 2),
    with the coth factor equal to one at zero temperature. Nonnegative for
    all inputs because every summand is. Each summand is evaluated as
    ``(|g_k| t/2 sin(x)/x)^2`` with ``x = omega_k t / 2``, so a mode too
    slow for ``omega_k^2`` to stay in float range gives its limit
    ``|g_k|^2 t^2 / 4``. Raises ``ToleranceNotMet`` naming ``t`` when a
    phase ``omega_k t / 2`` is not finite.
    """
    _check_time(t)
    w = np.array([m[0] for m in bath.modes])
    if not math.isfinite(0.5 * float(w.max()) * t):
        raise ToleranceNotMet(f"at t = {t:.6e} s: phase omega_k t / 2 is not finite")
    g_abs = np.array([abs(m[1]) for m in bath.modes])
    x = 0.5 * w * t
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    terms = (g_abs * (0.5 * t * sinc)) ** 2
    if temp.beta is not None:
        # an overflowed beta * w gives tanh = 1, an underflowed one tanh = 0,
        # which leaves a zero summand zero
        with np.errstate(over="ignore"):
            tanh = np.tanh(0.5 * temp.beta * w)
        terms = np.divide(terms, tanh, out=terms, where=terms != 0.0)
    return float(2.0 * terms.sum())


def g_ohmic(
    bath: OhmicBath, temp: Temperature, t: float, quad: QuadratureSpec
) -> float:
    """Decoherence exponent of an Ohmic bath at time ``t``.

    Evaluates, over the dimensionless variable ``x = omega / omega_c``,

        G(t) = 2 eta * integral of exp(-x) sin^2(x omega_c t / 2)
               coth(beta omega_c x / 2) / x  dx,

    which at zero temperature equals ``(eta/2) * ln(1 + omega_c^2 t^2)``.
    ``g_ohmic_closed`` evaluates the same exponent in closed form over a
    whole time grid; this quadrature is its independent check.
    Below ``x = 1e-8`` the integrand is replaced by its analytic limit,
    removing the 0/0 at the origin. ``quad`` bounds are in rad/s and are
    rescaled by the cutoff; an infinite upper bound is truncated where
    the ``exp(-x)`` envelope falls below ``quad.abs_tol``.

    Raises ``ToleranceNotMet``, its message starting ``at t = ... s:``,
    when the quadrature misses its tolerance or when the integrand's
    phase ``omega_c t x / 2`` is not finite on the interval. A negative
    or non-finite ``t`` is an input error and raises ``ValueError``.
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    wc = bath.omega_c
    half_wct = 0.5 * wc * t

    if temp.beta is not None:
        beta = temp.beta
        half_bwc = 0.5 * beta * wc
        flat = wc * t * t / (2.0 * beta)  # small-x limit of the integrand

        def integrand(x: float) -> float:
            if x < SMALL_FREQUENCY_FRACTION:
                return math.exp(-x) * flat
            return (
                math.exp(-x)
                * math.sin(half_wct * x) ** 2
                / (math.tanh(half_bwc * x) * x)
            )

    else:

        def integrand(x: float) -> float:
            if x < SMALL_FREQUENCY_FRACTION:
                return math.exp(-x) * x * half_wct * half_wct
            return math.exp(-x) * math.sin(half_wct * x) ** 2 / x

    upper = quad.upper / wc if math.isfinite(quad.upper) else math.inf
    spec_x = QuadratureSpec(
        lower=quad.lower / wc,
        upper=upper,
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
    )
    x_max = upper if math.isfinite(upper) else semi_infinite_cutoff(1.0, quad.abs_tol)
    if not math.isfinite(half_wct * x_max):
        raise ToleranceNotMet(
            f"at t = {t:.6e} s: integrand phase omega_c t x / 2 is not finite"
        )
    try:
        value = adaptive_quadrature(integrand, spec_x, envelope_scale=1.0)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(f"at t = {t:.6e} s: {exc}") from exc
    return max(0.0, 2.0 * bath.eta * value)


def g_ohmic_closed(bath: OhmicBath, temp: Temperature, times) -> np.ndarray:
    """Ohmic decoherence exponent at each time of the 1-D ``times``, in closed form.

    With ``a = omega_c t``, ``y = t / beta`` and ``z = 1 + 1/(beta omega_c)``,

        G(t) = eta [ (1/2) ln(1 + a^2) + sum_{n>=0} ln(1 + y^2/(z+n)^2) ],

    the Matsubara expansion of ``g_ohmic``'s integral (Palma, Suominen &
    Ekert, Proc. R. Soc. A 452, 567 (1996)); zero temperature keeps the
    first term. The sum takes its terms up to ``z + n = 32`` one by one
    with ``log1p``, and the rest as the Euler-Maclaurin tail at ``u``,
    ``r = y/u``: ``2 y atan(r) - u log1p(r^2) + log1p(r^2)/2`` minus four
    Bernoulli corrections, each written so that nothing cancels as
    ``r -> 0``. One numpy pass, no quadrature.

    ``G(0)`` is exactly 0. Raises ``ValueError`` for a negative or
    non-finite time, and ``ToleranceNotMet`` naming the first time, ``at t
    = ... s:``, at which ``(omega_c t)^2`` is not finite or, with ``beta
    omega_c`` or ``t / beta`` beyond float range, ``G`` is NaN. A ``G``
    too large for floats is ``inf``, as at zero temperature.
    """
    t = np.array(times, dtype=float, ndmin=1)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    with np.errstate(over="ignore"):
        a = bath.omega_c * t
    _raise_at_first(t, ~(a < _PHASE_LIMIT), "(omega_c t)^2 is not finite")
    if temp.beta is None:
        return 0.5 * bath.eta * np.log1p(a * a)
    # past float range (1/(beta omega_c) or t / beta overflowing) the terms
    # turn NaN, and the check below names the time
    with np.errstate(over="ignore", invalid="ignore"):
        bwc = temp.beta * bath.omega_c
        z = 1.0 + 1.0 / bwc if bwc > 0.0 else math.inf
        y = t / temp.beta
        z_n = z + np.arange(math.ceil(_DIRECT_UNTIL - z) if z < _DIRECT_UNTIL else 0)
        direct = np.log1p((y[:, None] / z_n) ** 2).sum(axis=1)
        u = z + z_n.size
        r = y / u
        log_r = np.log1p(r * r)
        angle = np.arctan(r)
        tail = 2.0 * y * angle - u * log_r + 0.5 * log_r
        # f^(m)(u) = (m-1)! 2 u^-m [Re (1 + i r)^-m - 1], m = 2j - 1, with the
        # bracket expm1(-(m/2) log1p(r^2)) cos(m atan r) - 2 sin^2(m atan(r)/2)
        for j, weight in enumerate(_EULER_MACLAURIN, 1):
            m = 2 * j - 1
            bracket = np.expm1(-0.5 * m * log_r) * np.cos(m * angle)
            bracket -= 2.0 * np.sin(0.5 * m * angle) ** 2
            tail -= weight * math.factorial(m - 1) * 2.0 * u**-m * bracket
        g = bath.eta * (0.5 * np.log1p(a * a) + (direct + tail))
    g[t == 0.0] = 0.0  # also where z overflowed and the tail is NaN
    _raise_at_first(t, np.isnan(g), "G is not a number")
    return g


def _raise_at_first(t: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ToleranceNotMet(f"at t = {t[np.argmax(bad)]:.6e} s: {what}")


def default_quadrature() -> QuadratureSpec:
    """Quadrature request suited to the Ohmic exponent at short times."""
    return QuadratureSpec(
        lower=0.0,
        upper=math.inf,
        rel_tol=1e-10,
        abs_tol=1e-30,
        max_subdivisions=500,
    )


def suppression_factor(g_value: float) -> float:
    """Coherence survival factor ``exp(-4 G)``, in ``(0, 1]`` for ``G >= 0``."""
    if not g_value >= 0.0:
        raise ValueError("g_value must be nonnegative")
    return math.exp(-4.0 * g_value)
