"""Concurrence of a dephasing pair: Wootters in general, and in closed form
for the evolved ``(|01> + alpha |10>)`` family, plus analytic references."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bath import _check_times, suppression_factor
from .errors import InvalidState
from .channel import (
    PAIR_PSD_FLOOR,
    TRACE_TOL,
    QubitParams,
    _pair_points,
    check_pair_state,
)
from .qmath import general_eigenvalues

__all__ = [
    "analytic_bell_concurrence",
    "analytic_bell_state",
    "concurrence",
    "family_concurrence",
    "family_concurrence_rows",
    "initial_state",
    "spin_flip",
]

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# Relative floor for zeroing rounding noise on the eigenvalues of a
# positive-semidefinite state before its square root is formed.
PSD_SQRT_FLOOR = 1e-14


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    # Square root of a PSD matrix or of each matrix of a stack; eigenvalues
    # inside the rounding band around zero (relative to that matrix's own
    # top eigenvalue, at least 1) are treated as exact zeros so the root
    # stays clean.
    w, v = np.linalg.eigh(a)
    top = w.max(axis=-1, keepdims=True)
    floor = PSD_SQRT_FLOOR * np.where(top > 1.0, top, 1.0)
    w = np.where(w < floor, 0.0, w)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def initial_state(alpha: complex) -> np.ndarray:
    """Projector onto ``(|01> + alpha |10>) / sqrt(1 + |alpha|^2)``.

    The concurrence of the returned state is ``2|alpha| / (1 + |alpha|^2)``,
    which peaks at one for ``|alpha| = 1`` and vanishes for ``alpha = 0``.
    """
    a, norm_sq = _checked_alpha(alpha)
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0
    vec[2] = a
    vec /= math.sqrt(norm_sq)
    return np.outer(vec, vec.conj())


def _checked_alpha(alpha) -> tuple[complex, float]:
    # alpha as a complex number and its norm 1 + |alpha|^2, both finite
    a = complex(alpha)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError("alpha must be finite")
    try:
        return a, 1.0 + abs(a) ** 2
    except OverflowError:
        raise ValueError("alpha too large: |alpha|**2 overflows") from None


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped companion ``(sy x sy) conj(rho) (sy x sy)`` of a state.

    Conjugation by a unitary of the complex conjugate preserves
    Hermiticity, trace, and positivity; applying the flip twice returns
    the original state.
    """
    a = check_pair_state(rho)
    return _FLIP @ a.conj() @ _FLIP


def concurrence(rho) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state, in ``[0, 1]``.

    The eigenvalues ``mu_i`` of ``rho * spin_flip(rho)`` are the squares
    of the Wootters ``lambda_i``; for a valid state they are real and
    nonnegative up to rounding, and anything beyond the rounding band
    (``|Im| > 1e-8`` or ``Re < -1e-10``) raises ``InvalidState``. The
    value itself comes from the singular values of
    ``sqrt(rho) sqrt(rho_tilde)``, which equal the ``lambda_i`` but stay
    accurate near zero: square-rooting a vanishing ``mu_i`` would inflate
    its rounding noise from 1e-16 to 1e-8, swamping the small
    coherence-suppression gaps this library is about. One root serves
    both: ``sqrt(rho_tilde) = F conj(sqrt(rho)) F``, ``F = sigma_y x sigma_y``.

    A stack ``(..., 4, 4)`` gives an array of concurrences, each equal to
    that of its matrix alone; the checks cover the whole stack and report
    the worst matrix.
    """
    a = check_pair_state(rho)
    rho_tilde = _FLIP @ a.conj() @ _FLIP
    mus = general_eigenvalues(a @ rho_tilde)
    worst_imag = float(np.abs(mus.imag).max())
    if worst_imag > 1e-8:
        raise InvalidState(
            f"eigenvalues of rho * rho_tilde not real: max |imag| {worst_imag:.3e}"
        )
    if float(mus.real.min()) < -1e-10:
        raise InvalidState(
            f"eigenvalue of rho * rho_tilde too negative: {float(mus.real.min()):.3e}"
        )
    root = _psd_sqrt(a)
    lams = np.linalg.svd(root @ _FLIP @ root.conj(), compute_uv=False)
    value = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    value = np.where(value > 0.0, value, 0.0)
    value = np.where(value < 1.0, value, 1.0)
    return float(value) if a.ndim == 2 else value


def family_concurrence(
    alpha, p1: QubitParams, p2: QubitParams, g1, g2, t
) -> float | np.ndarray:
    """Concurrence of ``evolve_pair(initial_state(alpha), p1, p2, g1, g2, t)``
    in closed form, the one-``alpha`` case of ``family_concurrence_rows``:
    scalar ``g1``, ``g2`` and ``t`` give a float, 1-D arrays an array.
    """
    (value,) = family_concurrence_rows([alpha], p1, p2, g1, g2, t)
    return value if np.ndim(t) else float(value[0])


def family_concurrence_rows(
    alphas, p1: QubitParams, p2: QubitParams, g1, g2, t
) -> np.ndarray:
    """The ``(k, n)`` concurrence of the evolved family at each of the ``k``
    values in ``alphas``, validated whole, from one pass over the grid.

    The evolved family is an X state. With ``delta_k = exp(-4 g_k)``,
    ``u_k = (1 + delta_k)/2``, ``d_k = (1 - delta_k)/2``, ``c_k = u_k
    exp(-i E_Jk t)``, ``N^2 = 1 + |alpha|^2``, ``p = 1/N^2``, ``q =
    |alpha|^2/N^2`` and ``z = conj(alpha)/N^2``, its nonzero entries are

        rho_00 = p u1 d2 + q d1 u2        rho_11 = p u1 u2 + q d1 d2
        rho_22 = p d1 d2 + q u1 u2        rho_33 = p d1 u2 + q u1 d2
        rho_12 = z c1 conj(c2) + conj(z) d1 d2
        rho_03 = z c1 d2 + conj(z) d1 c2

    and the concurrence is ``2 max(0, |rho_12| - sqrt(rho_00 rho_33),
    |rho_03| - sqrt(rho_11 rho_22))``. Both moduli depend on the phases
    only through ``(E_J1 - E_J2) t``, so the phases, ``u`` and ``d`` are
    formed once for all rows, and each row has the bits of its own call.

    Every point is validated as ``check_pair_state`` validates a state. An
    X state's spectrum is that of its blocks ``{0, 3}`` and ``{1, 2}``, so a
    trace gap above ``TRACE_TOL``, or a block eigenvalue ``(a + b)/2 -
    hypot((a - b)/2, |c|)`` below ``PAIR_PSD_FLOOR``, raises
    ``InvalidState`` naming the worst point of the first row that fails, so
    that each row fails as its own call would. ``g1``, ``g2`` and ``t`` are
    1-D arrays of one length or scalars (one point); negative or NaN values
    raise ``ValueError``, as do a phase ``E_J t`` that is not finite and an
    ``alpha`` that ``initial_state`` rejects.
    """
    checked = [_checked_alpha(alpha) for alpha in alphas]
    gs1, gs2, ts = _pair_points(g1, g2, t)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = p1.e_j * ts - p2.e_j * ts
    if not np.isfinite(phi).all():
        raise ValueError("e_j t must be finite")
    # each alpha's scalars in Python floats, as a (k, 1) column
    p, q, zr, zi = np.array(
        [(1.0 / n, abs(a) ** 2 / n, a.real / n, -a.imag / n) for a, n in checked]
    ).reshape(-1, 4).T[..., None]
    cos, sin = np.cos(phi), np.sin(phi)
    delta1, delta2 = suppression_factor(gs1), suppression_factor(gs2)
    u1, d1 = 0.5 * (1.0 + delta1), 0.5 * (1.0 - delta1)
    u2, d2 = 0.5 * (1.0 + delta2), 0.5 * (1.0 - delta2)
    uu, dd, ud, du = u1 * u2, d1 * d2, u1 * d2, d1 * u2
    # z exp(-i phi) = w + i v and conj(z) exp(i phi) = w - i v, so that
    # rho_12 = uu (w + i v) + dd conj(z) and exp(i E_J1 t) rho_03 = ud z +
    # du (w - i v)
    w, v = zr * cos + zi * sin, zi * cos - zr * sin
    abs_12 = np.hypot(uu * w + dd * zr, uu * v - dd * zi)
    abs_03 = np.hypot(ud * zr + du * w, ud * zi - du * v)
    rho_00, rho_33 = p * ud + q * du, p * du + q * ud
    rho_11, rho_22 = p * uu + q * dd, p * dd + q * uu
    trace_gaps = np.abs(rho_00 + rho_11 + rho_22 + rho_33 - 1.0).max(axis=1)
    lowest = np.min(
        [0.5 * (x + y) - np.hypot(0.5 * (x - y), c)
         for x, y, c in ((rho_00, rho_33, abs_03), (rho_11, rho_22, abs_12))],
        axis=(0, 2),
    )
    value = 2.0 * np.maximum(
        abs_12 - np.sqrt(rho_00 * rho_33), abs_03 - np.sqrt(rho_11 * rho_22)
    )
    for trace_gap, low in zip(trace_gaps.tolist(), lowest.tolist()):
        if trace_gap > TRACE_TOL:
            raise InvalidState(f"trace differs from one by {trace_gap:.3e}")
        if low < PAIR_PSD_FLOOR:
            raise InvalidState(f"negative eigenvalue {low:.3e}")
    return np.clip(value, 0.0, 1.0)


def analytic_bell_state(g1: float, g2: float, e_j_sum: float, t: float) -> np.ndarray:
    """Closed-form state of a maximally entangled pair after time ``t``.

    With ``x = exp(-4 g1 - 4 g2)``, the corners carry weight
    ``A = (1 - x)/4`` and the two-qubit precession phase
    ``exp(-i t e_j_sum / 2)`` (``e_j_sum`` is the sum of both tunneling
    energies), while the inner block carries ``B = (1 + x)/4``. Matches
    ``evolve_pair`` on the ``alpha = 1`` input when both qubits share one
    tunneling energy. The exponents and ``t`` are checked as there.
    """
    if not g1 >= 0.0 or not g2 >= 0.0:
        raise ValueError("exponents must be nonnegative")
    _check_times(t)
    x = math.exp(-4.0 * (g1 + g2))
    corner = 1.0 - x
    inner = 1.0 + x
    phase = cmath.exp(-0.5j * e_j_sum * t)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = corner
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = inner
    m[0, 3] = corner * phase
    m[3, 0] = corner * phase.conjugate()
    return 0.25 * m


def analytic_bell_concurrence(g1: float, g2: float) -> float:
    """Concurrence ``exp(-4 g1 - 4 g2)`` of the evolved maximally entangled pair.

    Equals the product of the two single-qubit suppression factors, which
    is the headline factorization this library reproduces.
    """
    if not g1 >= 0.0 or not g2 >= 0.0:
        raise ValueError("exponents must be nonnegative")
    return math.exp(-4.0 * (g1 + g2))
