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
    "suppression_factor",
]

# Fraction of the cutoff below which the Ohmic integrand switches to its
# analytic small-frequency limit (the 0/0 at the origin is removable).
SMALL_FREQUENCY_FRACTION = 1e-8


@dataclass(frozen=True)
class Temperature:
    """Bath temperature, either exactly zero or finite with ``beta = 1/T``."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "finite"):
            raise ValueError(f"kind must be 'zero' or 'finite', got {self.kind!r}")
        if self.kind == "finite":
            if self.beta is None or not self.beta > 0.0:
                raise ValueError("finite temperature requires beta > 0")
        elif self.beta is not None:
            raise ValueError("zero temperature takes no beta")

    @classmethod
    def zero(cls) -> "Temperature":
        return cls("zero")

    @classmethod
    def finite(cls, beta: float) -> "Temperature":
        return cls("finite", float(beta))


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


def g_discrete(bath: DiscreteBath, temp: Temperature, t: float) -> float:
    """Decoherence exponent of a discrete bath at time ``t``.

    G(t) = 2 sum_k |g_k|^2 / omega_k^2 * sin^2(omega_k t / 2) * coth(beta omega_k / 2),
    with the coth factor equal to one at zero temperature. Nonnegative for
    all inputs because every summand is.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    w = np.array([m[0] for m in bath.modes])
    g2 = np.array([abs(m[1]) ** 2 for m in bath.modes])
    terms = g2 / w**2 * np.sin(0.5 * w * t) ** 2
    if temp.kind == "finite":
        terms = terms / np.tanh(0.5 * temp.beta * w)
    return float(2.0 * terms.sum())


def g_ohmic(
    bath: OhmicBath, temp: Temperature, t: float, quad: QuadratureSpec
) -> float:
    """Decoherence exponent of an Ohmic bath at time ``t``.

    Evaluates, over the dimensionless variable ``x = omega / omega_c``,

        G(t) = 2 eta * integral of exp(-x) sin^2(x omega_c t / 2)
               coth(beta omega_c x / 2) / x  dx,

    which at zero temperature equals ``(eta/2) * ln(1 + omega_c^2 t^2)``.
    Below ``x = 1e-8`` the integrand is replaced by its analytic limit,
    removing the 0/0 at the origin. ``quad`` bounds are in rad/s and are
    rescaled by the cutoff; an infinite upper bound is truncated where
    the ``exp(-x)`` envelope falls below ``quad.abs_tol``.

    Raises ``ToleranceNotMet``, its message starting ``at t = ... s:``,
    when the quadrature misses its tolerance or when the integrand's
    phase ``omega_c t x / 2`` is not finite on the interval.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    wc = bath.omega_c
    half_wct = 0.5 * wc * t

    if temp.kind == "finite":
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
