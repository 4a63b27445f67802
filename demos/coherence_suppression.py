"""Single-qubit coherence suppression for an Ohmic bath.

Tabulates the dephasing exponent G(t) and the off-diagonal suppression
factor delta(t) = exp(-4 G(t)) at zero and finite temperature, and checks
the zero-temperature table against the closed form

    G(t) = (eta / 2) * ln(1 + (omega_c * t)^2),

and the finite-temperature table against g_ohmic_closed, the same
exponent as a Matsubara sum.

Times are reported both in seconds and in the unit 1 ks = 1.51929e-9 s
used throughout the CSV outputs.
"""

import math

import numpy as np

from qubit_dephasing import (
    OhmicBath,
    Temperature,
    g_ohmic,
    g_ohmic_closed,
    suppression_factor,
)

KS_IN_SECONDS = 1.51929e-9

bath = OhmicBath(eta=1e-5, omega_c=1e12)
cold = Temperature.zero()
warm = Temperature.finite(1e-12)  # beta in 1/(rad/s), k_B = hbar = 1

times = np.linspace(0.0, 12.0e-12, 7)

print("Ohmic bath: eta = %.1e, omega_c = %.1e rad/s" % (bath.eta, bath.omega_c))
print()
print(f"{'t [s]':>12} {'t [ks]':>10} {'G cold':>12} {'G warm':>12} "
      f"{'delta cold':>12} {'delta warm':>12}")
worst = worst_warm = 0.0
for t, warm_closed in zip(times, g_ohmic_closed(bath, warm, times)):
    g_cold = g_ohmic(bath, cold, float(t))
    g_warm = g_ohmic(bath, warm, float(t))
    closed = 0.5 * bath.eta * math.log1p((bath.omega_c * t) ** 2)
    if closed > 0.0:
        worst = max(worst, abs(g_cold - closed) / closed)
        worst_warm = max(worst_warm, abs(g_warm - warm_closed) / warm_closed)
    print(f"{t:12.3e} {t / KS_IN_SECONDS:10.5f} {g_cold:12.5e} {g_warm:12.5e} "
          f"{suppression_factor(g_cold):12.9f} {suppression_factor(g_warm):12.9f}")

print()
print(f"worst relative gap to the closed form at T = 0: {worst:.3e}")
print(f"worst relative gap to g_ohmic_closed at beta = {warm.beta:g} s: {worst_warm:.3e}")
print("finite temperature always dephases faster; the warm column decays first.")
