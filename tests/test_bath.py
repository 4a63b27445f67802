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
        Temperature("finite")
    with pytest.raises(ValueError):
        Temperature.finite(0.0)
    with pytest.raises(ValueError):
        Temperature("zero", beta=1.0)
    with pytest.raises(ValueError):
        Temperature("warm")


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


TEMPERATURES = pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(2e-12)], ids=["zero", "finite"]
)


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
