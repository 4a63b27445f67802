import math

import numpy as np
import pytest

from qubit_dephasing.bath import (
    DiscreteBath,
    OhmicBath,
    Temperature,
    default_quadrature,
    g_discrete,
    g_ohmic,
    g_ohmic_closed,
    suppression_factor,
)
from qubit_dephasing.errors import ToleranceNotMet

# (eta/2) * ln(1 + (omega_c t)^2) for eta=1e-5, omega_c=1e12
CLOSED_FORM_T1PS = 3.4657359027997266e-06  # t = 1e-12, ln 2
CLOSED_FORM_T10PS = 2.3075602584206302e-05  # t = 1e-11, ln 101


def ohmic_zero_t_exponent(eta, omega_c, t):
    return 0.5 * eta * math.log(1.0 + (omega_c * t) ** 2)


def test_discrete_zero_time():
    bath = DiscreteBath(((1e11, 1e10),))
    assert g_discrete(bath, Temperature.zero(), 0.0) == 0.0


def test_discrete_zero_coupling():
    bath = DiscreteBath(((1e11, 0.0),))
    assert g_discrete(bath, Temperature.zero(), 3.7e-12) == 0.0


def test_discrete_single_mode_peak():
    # 2 * |g/omega|^2 * sin^2(pi/2) = 2 at omega=1, |g|=1, t=pi
    bath = DiscreteBath(((1.0, 1.0),))
    assert g_discrete(bath, Temperature.zero(), math.pi) == pytest.approx(2.0, abs=1e-14)


def test_discrete_coupling_phase_is_irrelevant():
    phase = complex(math.cos(1.1), math.sin(1.1))
    plain = DiscreteBath(((2.0, 0.7),))
    rotated = DiscreteBath(((2.0, 0.7 * phase),))
    t = 0.9
    assert g_discrete(plain, Temperature.zero(), t) == pytest.approx(
        g_discrete(rotated, Temperature.zero(), t), rel=1e-14
    )


@pytest.mark.parametrize("omega", [1e-100, 1e-150, 1e-200, 1e-300, 5e-324])
def test_discrete_slow_mode_tends_to_the_static_limit(omega):
    # each summand |g|^2 sin^2(omega t/2) / omega^2 tends to |g|^2 t^2 / 4, so
    # G = 2 sum tends to |g|^2 t^2 / 2; from omega = 1e-150 down, omega^2 or
    # |g|^2 / omega^2 leaves float range
    g, t = 1e10, 4e-13
    slow = DiscreteBath(((omega, g),))
    assert g_discrete(slow, Temperature.zero(), t) == pytest.approx(
        0.5 * g * g * t * t, rel=1e-12
    )
    assert g_discrete(slow, Temperature.zero(), 0.0) == 0.0
    # the summands of a slow and a normal mode add
    fast = DiscreteBath(((1e11, 1e10),))
    joint = DiscreteBath((slow.modes[0], fast.modes[0]))
    assert g_discrete(joint, Temperature.zero(), t) == (
        g_discrete(slow, Temperature.zero(), t) + g_discrete(fast, Temperature.zero(), t)
    )


def test_discrete_summand_survives_an_underflowing_sine_squared():
    # sin^2(omega t / 2) = 4e-326 underflows to zero, the summand
    # |g|^2 t^2 / 4 = 4e-306 does not
    bath = DiscreteBath(((1e-150, 1e-140),))
    assert g_discrete(bath, Temperature.zero(), 4e-13) == pytest.approx(8e-306, rel=1e-12)


def test_discrete_overflowing_beta_omega_is_the_zero_temperature_limit():
    # beta omega / 2 = 5e310 is beyond float range, and coth is then exactly 1
    bath = DiscreteBath(((1e11, 1e10),))
    cold = g_discrete(bath, Temperature.zero(), 1e-12)
    assert g_discrete(bath, Temperature.finite(1e300), 1e-12) == cold


@pytest.mark.parametrize("g,t", [(1e10, 0.0), (0.0, 1e-12)], ids=["t_zero", "g_zero"])
def test_discrete_zero_summand_stays_zero_when_beta_omega_underflows(g, t):
    # tanh(beta omega / 2) = tanh(5e-401) is 0 in floats; 0 / 0 would be NaN
    bath = DiscreteBath(((1e-200, g),))
    assert g_discrete(bath, Temperature.finite(1e-200), t) == 0.0


def test_discrete_finite_temperature_enhances():
    bath = DiscreteBath(((1e11, 1e10), (3e11, 2e10)))
    warm = Temperature.finite(1e-12)
    for t in (1e-13, 5e-13, 2e-12):
        cold_g = g_discrete(bath, Temperature.zero(), t)
        assert g_discrete(bath, warm, t) > cold_g > 0.0


def test_discrete_additive_over_modes():
    t = 1.3e-12
    joint = DiscreteBath(((1e11, 1e10), (2e11, 3e10)))
    first = DiscreteBath(((1e11, 1e10),))
    second = DiscreteBath(((2e11, 3e10),))
    temp = Temperature.zero()
    assert g_discrete(joint, temp, t) == pytest.approx(
        g_discrete(first, temp, t) + g_discrete(second, temp, t), rel=1e-14
    )


def test_ohmic_zero_time():
    bath = OhmicBath(1e-5, 1e12)
    assert g_ohmic(bath, Temperature.zero(), 0.0, default_quadrature()) == 0.0


def test_ohmic_matches_closed_form_frozen_values():
    bath = OhmicBath(1e-5, 1e12)
    quad = default_quadrature()
    got_1ps = g_ohmic(bath, Temperature.zero(), 1e-12, quad)
    got_10ps = g_ohmic(bath, Temperature.zero(), 1e-11, quad)
    assert got_1ps == pytest.approx(CLOSED_FORM_T1PS, rel=1e-8)
    assert got_10ps == pytest.approx(CLOSED_FORM_T10PS, rel=1e-8)


def test_ohmic_matches_closed_form_other_parameters():
    bath = OhmicBath(3e-4, 5e11)
    quad = default_quadrature()
    for t in (2e-13, 1.7e-12, 8e-12):
        got = g_ohmic(bath, Temperature.zero(), t, quad)
        assert got == pytest.approx(ohmic_zero_t_exponent(3e-4, 5e11, t), rel=1e-8)


def test_ohmic_zero_temperature_monotone():
    bath = OhmicBath(1e-5, 1e12)
    quad = default_quadrature()
    temp = Temperature.zero()
    values = [g_ohmic(bath, temp, t, quad) for t in np.linspace(0.0, 1.2e-11, 25)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ohmic_finite_temperature_enhances():
    bath = OhmicBath(1e-5, 1e12)
    quad = default_quadrature()
    warm = Temperature.finite(1e-12)
    for t in (3e-13, 2e-12, 9e-12):
        cold_g = g_ohmic(bath, Temperature.zero(), t, quad)
        assert g_ohmic(bath, warm, t, quad) > cold_g > 0.0


def matsubara_reference(omega_c, beta, t, n_terms=200_000):
    """G / eta at one time: the Matsubara sum, its first ``n_terms`` terms one
    by one, the rest as the integral from ``z + n_terms - 1/2`` (midpoint
    rule) with its first midpoint correction ``f'/24``."""
    z = 1.0 + 1.0 / (beta * omega_c)
    y = t / beta
    direct = np.log1p((y / (z + np.arange(n_terms))) ** 2).sum()
    m = z + n_terms - 0.5
    r = y / m
    integral = 2.0 * y * math.atan(r) - m * math.log1p(r * r)
    correction = -2.0 * y * y / (m * (m * m + y * y)) / 24.0
    return 0.5 * math.log1p((omega_c * t) ** 2) + direct + integral + correction


# (omega_c, beta): z = 1 + 1/(beta omega_c) from 1 + 1e-6 to 1e6 + 1; the
# last pair is a benchmark sweep op's bath, where the quadrature is off by
# 7.7e-8 relative at t = 4.803e-11 s
MATSUBARA_BATHS = [
    (1e12, 1e-6),
    (1e12, 2e-12),
    (1e9, 1e-11),
    (1e15, 1e-15),
    (5e11, 1e-13),
    (1e12, 1e-18),
    (9.114064220507402e11, 1.1010995730163544e-12),
]


@pytest.mark.parametrize("omega_c,beta", MATSUBARA_BATHS)
def test_ohmic_closed_matches_a_long_matsubara_sum(omega_c, beta):
    # t from 1e-17 s to omega_c t = 1e5, far past the quadrature edge;
    # largest measured gap 5.8e-16 (the reference is 3e-16 off mpmath)
    times = np.append(np.logspace(-17, math.log10(1e5 / omega_c), 12), 4.803e-11)
    got = g_ohmic_closed(OhmicBath(1.0, omega_c), Temperature(beta), times)
    for t, g in zip(times, got):
        assert g == pytest.approx(matsubara_reference(omega_c, beta, t), rel=2e-15, abs=0)
    dense = np.linspace(0.0, 1e5 / omega_c, 400)
    g = g_ohmic_closed(OhmicBath(1e-5, omega_c), Temperature(beta), dense)
    assert g[0] == 0.0
    assert np.all(np.diff(g) >= 0.0)


@pytest.mark.parametrize("omega_c,beta", MATSUBARA_BATHS)
def test_ohmic_closed_matches_loggamma_where_y_exceeds_z(omega_c, beta):
    # the sum is 2 [ln Gamma(z) - Re ln Gamma(z + i y)], which does not cancel
    # for y >= z; largest measured gap 3.1e-15, at z = 1e6
    from scipy.special import loggamma

    z = 1.0 + 1.0 / (beta * omega_c)
    times = beta * z * np.logspace(0.0, 4.0, 15)
    times = times[omega_c * times <= 1e7]
    y = times / beta
    expect = 0.5 * np.log1p((omega_c * times) ** 2) + 2.0 * (
        loggamma(z).real - loggamma(z + 1j * y).real
    )
    got = g_ohmic_closed(OhmicBath(1.0, omega_c), Temperature(beta), times)
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("omega_c", [5e11, 1e12, 2e12])
@pytest.mark.parametrize("beta", [1e-13, 2e-12, 1e-11])
def test_ohmic_closed_matches_the_quadrature(omega_c, beta):
    # t from 1e-17 s to omega_c t = 300, where the quadrature still converges;
    # largest measured gap 1.1e-11, inside its rel_tol of 1e-10
    bath = OhmicBath(1e-5, omega_c)
    temp = Temperature(beta)
    quad = default_quadrature()
    times = np.logspace(-17, math.log10(300.0 / omega_c), 15)
    got = g_ohmic_closed(bath, temp, times)
    for t, g in zip(times.tolist(), got):
        assert g == pytest.approx(g_ohmic(bath, temp, t, quad), rel=quad.rel_tol)


def test_ohmic_closed_zero_time_and_zero_temperature():
    bath = OhmicBath(3e-4, 5e11)
    times = np.array([0.0, 1e-17, 2e-13, 1.7e-12, 8e-12, 1e-6])
    assert g_ohmic_closed(bath, Temperature.finite(2e-12), [0.0, 0.0]).tolist() == [0.0, 0.0]
    cold = g_ohmic_closed(bath, Temperature.zero(), times)
    expect = (bath.eta / 2) * np.log1p((bath.omega_c * times) ** 2)
    assert cold.tobytes() == expect.tobytes()
    warm = g_ohmic_closed(bath, Temperature.finite(2e-12), times)
    assert np.all(warm[1:] > cold[1:])


def discretized_ohmic(eta, omega_c, n_modes, omega_max):
    # midpoint rule: |g_k|^2 = J(omega_k) d_omega on a uniform grid
    d_omega = omega_max / n_modes
    omegas = (np.arange(n_modes) + 0.5) * d_omega
    weights = eta * omegas * np.exp(-omegas / omega_c) * d_omega
    return DiscreteBath(tuple(zip(omegas, np.sqrt(weights))))


@pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(1e-12)], ids=["zero", "finite"]
)
def test_ohmic_continuum_consistent_with_dense_discretization(temp):
    eta, omega_c = 1e-5, 1e12
    continuum = OhmicBath(eta, omega_c)
    discrete = discretized_ohmic(eta, omega_c, 10_000, 60.0 * omega_c)
    quad = default_quadrature()
    for t in np.linspace(0.0, 10.0 / omega_c, 9)[1:]:
        reference = g_ohmic(continuum, temp, float(t), quad)
        summed = g_discrete(discrete, temp, float(t))
        assert summed == pytest.approx(reference, rel=1e-3)


def test_suppression_factor_values():
    assert suppression_factor(0.0) == 1.0
    # G = ln(2)/4 halves the coherence
    assert suppression_factor(0.17328679513998632) == pytest.approx(0.5, rel=1e-14)
    assert suppression_factor(2.0) == pytest.approx(math.exp(-8.0), rel=1e-14)


def test_suppression_factor_rejects_negative():
    with pytest.raises(ValueError):
        suppression_factor(-1e-3)


def test_suppression_factor_rejects_nan():
    with pytest.raises(ValueError):
        suppression_factor(math.nan)


def test_temperature_validation():
    with pytest.raises(ValueError):
        Temperature.finite(0.0)
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            Temperature(beta)
    assert Temperature() == Temperature.zero()
    assert Temperature(2e-12) == Temperature.finite(2e-12)
    assert hash(Temperature(2e-12)) == hash(Temperature.finite(2e-12))
    assert hash(Temperature()) == hash(Temperature.zero())


def test_discrete_bath_validation():
    with pytest.raises(ValueError):
        DiscreteBath(())
    with pytest.raises(ValueError):
        DiscreteBath(((0.0, 1.0),))
    with pytest.raises(ValueError):
        DiscreteBath(((-1e10, 1.0),))


def test_ohmic_bath_validation():
    with pytest.raises(ValueError):
        OhmicBath(0.0, 1e12)
    with pytest.raises(ValueError):
        OhmicBath(1e-5, -1e12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        g_discrete(DiscreteBath(((1.0, 1.0),)), Temperature.zero(), -1.0)
    with pytest.raises(ValueError):
        g_ohmic(OhmicBath(1e-5, 1e12), Temperature.zero(), -1e-12, default_quadrature())
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        g_ohmic_closed(OhmicBath(1e-5, 1e12), Temperature.zero(), [0.0, -1e-12])


TEMPERATURES = pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(2e-12)], ids=["zero", "finite"]
)


@TEMPERATURES
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(temp, t):
    with pytest.raises(ValueError, match="^t must be finite$"):
        g_discrete(DiscreteBath(((1.0, 1.0),)), temp, t)
    with pytest.raises(ValueError, match="^t must be finite$"):
        g_ohmic(OhmicBath(1e-5, 1e12), temp, t, default_quadrature())
    with pytest.raises(ValueError, match="^t must be finite$"):
        g_ohmic_closed(OhmicBath(1e-5, 1e12), temp, [0.0, t])


@TEMPERATURES
def test_ohmic_quadrature_failure_names_its_time_point(temp):
    # omega_c t = 500: too many oscillations for the subdivision budget
    with pytest.raises(ToleranceNotMet, match=r"^at t = 5\.000000e-10 s: ") as info:
        g_ohmic(OhmicBath(1e-5, 1e12), temp, 5e-10, default_quadrature())
    assert isinstance(info.value.__cause__, ToleranceNotMet)


@TEMPERATURES
def test_ohmic_phase_overflow_names_its_time_point(temp):
    # omega_c t x / 2 exceeds float range near the quadrature's upper bound
    with pytest.raises(
        ToleranceNotMet, match=r"^at t = 1\.000000e\+296 s: integrand phase .* not finite$"
    ):
        g_ohmic(OhmicBath(1e-5, 1e12), temp, 1e296, default_quadrature())


@TEMPERATURES
def test_ohmic_closed_phase_overflow_names_its_time_point(temp):
    # (omega_c t)^2 leaves float range past omega_c t = 1.34e154; the first
    # such time is named, and nothing is squared that would warn
    bath = OhmicBath(1e-5, 1e12)
    with pytest.raises(
        ToleranceNotMet, match=r"^at t = 1\.000000e\+296 s: \(omega_c t\)\^2 is not finite$"
    ):
        g_ohmic_closed(bath, temp, [0.0, 1e-12, 1e296, 1e142, 1e300])
    assert np.all(np.isfinite(g_ohmic_closed(bath, temp, [1.34e142])))


def test_ohmic_closed_names_the_first_time_it_cannot_evaluate():
    # beta omega_c = 1e-400 underflows, so z = 1 + 1/(beta omega_c) does not
    # exist in floats; G(0) = 0 still holds
    bath = OhmicBath(1e-5, 1e-200)
    hot = Temperature.finite(1e-200)
    assert g_ohmic_closed(bath, hot, [0.0, 0.0]).tolist() == [0.0, 0.0]
    with pytest.raises(ToleranceNotMet, match=r"^at t = 1\.000000e-12 s: G is not a number$"):
        g_ohmic_closed(bath, hot, [0.0, 1e-12, 1.0])


@TEMPERATURES
def test_discrete_phase_overflow_names_its_time_point(temp):
    # omega t / 2 = 5e310 for the faster mode is beyond float range
    bath = DiscreteBath(((1e10, 1e9), (1e11, 1e9)))
    with pytest.raises(
        ToleranceNotMet, match=r"^at t = 1\.000000e\+300 s: phase omega_k t / 2 is not finite$"
    ):
        g_discrete(bath, temp, 1e300)
    assert math.isfinite(g_discrete(bath, temp, 1e297))
