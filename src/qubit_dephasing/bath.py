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

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .qmath import QuadratureSpec, adaptive_quadrature

__all__ = [
    "DiscreteBath",
    "OhmicBath",
    "Temperature",
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

# g_ohmic's rule over x = omega / omega_c: past ln(1 / abs_tol) + 40 the
# exp(-x) envelope leaves a negligible tail
_OHMIC_QUADRATURE = QuadratureSpec(
    lower=0.0,
    upper=math.log(1.0 / 1e-30) + 40.0,
    rel_tol=1e-10,
    abs_tol=1e-30,
    max_subdivisions=500,
)


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

    Frequencies are strictly positive and couplings finite; couplings are
    complex, but only ``|g_k|^2`` enters the exponent.
    """

    modes: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        modes = tuple((float(w), complex(g)) for w, g in self.modes)
        if not modes:
            raise ValueError("mode list must be non-empty")
        if any(w <= 0.0 for w, _ in modes):
            raise ValueError("mode frequencies must be strictly positive")
        if not all(math.isfinite(w) and cmath.isfinite(g) for w, g in modes):
            raise ValueError("mode frequencies and couplings must be finite")
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


def _check_times(t) -> None:
    # The one time rule of the package, for a time or an array of times: a
    # negative t, -inf included, is out of range, and NaN and +inf are not
    # finite. A Python float, the per-call case, is checked without numpy.
    if isinstance(t, (int, float)):
        negative, finite = t < 0.0, t < math.inf
    else:
        ts = np.asarray(t, dtype=float)
        negative, finite = (ts < 0.0).any(), (ts < math.inf).all()
    if negative:
        raise ValueError("t must be nonnegative")
    if not finite:
        raise ValueError("t must be finite")


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
    _check_times(t)
    w = np.array([m[0] for m in bath.modes])
    if not math.isfinite(0.5 * float(w.max()) * t):
        raise ToleranceNotMet(f"at t = {t:.6e} s: phase omega_k t / 2 is not finite")
    g_abs = np.array([abs(m[1]) for m in bath.modes])
    x = 0.5 * w * t
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    # a G too large for floats is inf; an overflowed beta * w gives tanh = 1,
    # an underflowed one tanh = 0, which leaves a zero summand zero
    with np.errstate(over="ignore"):
        terms = (g_abs * (0.5 * t * sinc)) ** 2
        if temp.beta is not None:
            tanh = np.tanh(0.5 * temp.beta * w)
            terms = np.divide(terms, tanh, out=terms, where=terms != 0.0)
        return float(2.0 * terms.sum())


def g_ohmic(bath: OhmicBath, temp: Temperature, t: float) -> float:
    """Decoherence exponent of an Ohmic bath at time ``t``.

    Evaluates, over the dimensionless variable ``x = omega / omega_c``,

        G(t) = 2 eta * integral of exp(-x) sin^2(x omega_c t / 2)
               coth(beta omega_c x / 2) / x  dx,

    which at zero temperature equals ``(eta/2) * ln(1 + omega_c^2 t^2)``.
    ``g_ohmic_closed`` evaluates the same exponent in closed form over a
    whole time grid, and the CLI sweeps run it; this quadrature only
    validates it and is on no run path.

    The rule integrates ``x`` from 0 to ``ln(1e30) + 40``, past which the
    ``exp(-x)`` envelope is negligible, to a relative tolerance of 1e-10
    (absolute 1e-30) in at most 500 subintervals. At finite temperature it
    splits at ``x = 2 kappa · {1, 10, 100, 1000}`` (``kappa = 1/(beta
    omega_c)``, where ``coth`` turns over) and ``x = pi/(omega_c t) · {1,
    10}``; without them, ``kappa`` in 1e-6..1e-3 missed by up to 6.2e-6
    without raising. Trusted window, against the closed form: with them,
    random points with ``beta omega_c`` 0.05..1e6 miss 1e-10 about 1 in
    750, by up to 1.2e-8, all past ``omega_c t = 19``; at zero temperature,
    by up to 4.4e-9 for ``omega_c t`` up to 1e4. From ``omega_c t`` of
    about 340 (600 when hot) the quadrature raises.

    Below ``x = 1e-8`` the integrand is replaced by its analytic limit,
    removing the 0/0 at the origin.

    Raises ``ToleranceNotMet``, its message starting ``at t = ... s:``,
    when the quadrature misses its tolerance or when the integrand's
    phase ``omega_c t x / 2`` is not finite on the interval. A negative
    or non-finite ``t`` raises ``ValueError``, as everywhere in the package.
    """
    _check_times(t)
    if t == 0.0:
        return 0.0
    wc = bath.omega_c
    half_wct = 0.5 * wc * t

    points = ()
    if temp.beta is not None:
        beta = temp.beta
        half_bwc = 0.5 * beta * wc
        flat = wc * t * t / (2.0 * beta)  # small-x limit of the integrand
        # splits from where coth turns over (x = 2 kappa = 1/half_bwc) and
        # where sin^2 first peaks, so that no subinterval hides that knee
        if half_bwc > 0.0 and half_wct > 0.0:
            knee, peak = 1.0 / half_bwc, math.pi / (2.0 * half_wct)
            points = [knee, 10 * knee, 100 * knee, 1000 * knee, peak, 10 * peak]

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

    if not math.isfinite(half_wct * _OHMIC_QUADRATURE.upper):
        raise ToleranceNotMet(
            f"at t = {t:.6e} s: integrand phase omega_c t x / 2 is not finite"
        )
    try:
        value = adaptive_quadrature(integrand, _OHMIC_QUADRATURE, points=points)
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
    _check_times(t)
    with np.errstate(over="ignore"):
        a = bath.omega_c * t
    _raise_at_first(t, ~(a < _PHASE_LIMIT), "(omega_c t)^2 is not finite")
    if temp.beta is None:
        with np.errstate(over="ignore"):  # a G too large for floats is inf
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
        # bracket expm1(-(m/2) log1p(r^2)) cos(m atan r) - 2 sin^2(m atan(r)/2),
        # the four brackets in one (4, n) pass, subtracted in order of m
        col = np.arange(1.0, 8.0, 2.0)[:, None]
        brackets = np.expm1(-0.5 * col * log_r) * np.cos(col * angle)
        brackets -= 2.0 * np.sin(0.5 * col * angle) ** 2
        for m, weight, bracket in zip((1, 3, 5, 7), _EULER_MACLAURIN, brackets):
            tail -= weight * math.factorial(m - 1) * 2.0 * u**-m * bracket
        g = bath.eta * (0.5 * np.log1p(a * a) + (direct + tail))
    g[t == 0.0] = 0.0  # also where z overflowed and the tail is NaN
    _raise_at_first(t, np.isnan(g), "G is not a number")
    return g


def _raise_at_first(t: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ToleranceNotMet(f"at t = {t[np.argmax(bad)]:.6e} s: {what}")


def suppression_factor(g_value):
    """Coherence survival factor ``exp(-4 G)``, in ``(0, 1]`` for ``G >= 0``.

    A scalar gives a float, an array an array whose entries have the scalar
    call's bits (numpy's ``exp``); a negative or NaN entry raises ``ValueError``.
    """
    g = np.asarray(g_value, dtype=float)
    if not (g >= 0.0).all():
        raise ValueError("g_value must be nonnegative")
    with np.errstate(over="ignore"):  # -4 G past float range: delta = 0
        delta = np.exp(-4.0 * g)
    return delta if g.ndim else float(delta)
