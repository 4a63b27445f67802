"""Host speed, read from a fixed reference kernel timed through the run.

The machines this benchmark runs on share their cores with other tenants,
and their speed changes by up to 1.7x for stretches of seconds to minutes.
No statistic taken within one run removes a change that outlasts the run,
so the run times a fixed reference kernel, which owes nothing to the
package, just before every op. A measured op time is scaled by the
kernel's reference time over the median of the kernel samples nearest to
it: the result is the time the op would have taken on the host at the
speed that gave the reference time.

Contention does not slow all code alike: interpreter-bound code loses
more than dense linear algebra. Each workload therefore has a kernel of
the kind of work it does most.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.integrate

# Kernel samples, centred on an op, whose median sets its speed.
NEIGHBOURS = 3

_EYE = np.eye(2, dtype=complex)
_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_HERMITIAN = _M + _M.conj().T


def _small_products() -> float:
    """Interpreter work and 2x2 numpy products, like ``channel``."""
    total = 0.0
    for i in range(1000):
        total += (_EYE @ _EYE)[0, 0].real + i * 0.5
    return total


def _ohmic_integrand(w: float) -> float:
    return math.exp(-w) * (1.0 - math.cos(40.0 * w)) / w if w > 0.0 else 0.0


def _quadrature() -> float:
    """QUADPACK calling back into Python, like ``bath.g_ohmic``."""
    return scipy.integrate.quad(_ohmic_integrand, 0.0, math.inf, limit=200)[0]


def _dense_eigen() -> np.ndarray:
    """A 96 x 96 Hermitian propagator, like ``qmath.matrix_exponential``."""
    w, v = np.linalg.eigh(_HERMITIAN)
    return (v * np.exp(-1j * w)) @ v.conj().T


# Kernel and its seconds per call on the machine named in README.md, at
# the speed most of its runs see.
KERNELS = {
    "sweep": (_quadrature, 1.0e-3),
    "bloch_scan": (_small_products, 2.5e-3),
    "oracle": (_dense_eigen, 2.0e-3),
}


class HostSpeed:
    """Kernel samples in time order, and the scale factors they imply."""

    def __init__(self, workload: str):
        self.kernel, self.reference_s = KERNELS[workload]
        self.samples: list[float] = []
        for _ in range(3):  # first calls pay for lazy set-up
            self.kernel()

    def sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.samples.append(perf_counter() - t0)

    def scale(self, index: int) -> float:
        """Factor that takes a time measured next to sample ``index`` to reference speed."""
        lo = max(0, min(index - NEIGHBOURS // 2, len(self.samples) - NEIGHBOURS))
        return self.reference_s / statistics.median(self.samples[lo : lo + NEIGHBOURS])

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return self.reference_s / statistics.median(self.samples)
