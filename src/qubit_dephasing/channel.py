"""Short-time dephasing channel of one qubit and its two-qubit extension.

Qubit states live in the eigenbasis of the qubit Hamiltonian
``-E_J/2 * sigma_x``, ordered with the higher-energy eigenstate
``(|0> - |1>)/sqrt(2)`` first. In that basis the channel at exponent G is
the two-operator mixture

    rho' = (1 + delta)/2 * R rho R^dag + (1 - delta)/2 * X rho X

with ``delta = exp(-4 G)``, ``R = diag(exp(-i E_J t / 2), exp(+i E_J t / 2))``
and ``X`` the basis swap. Entrywise:

    rho_00' = (1+delta)/2 * rho_00 + (1-delta)/2 * rho_11
    rho_01' = (1+delta)/2 * exp(-i E_J t) * rho_01 + (1-delta)/2 * rho_10

with ``rho_11'`` and ``rho_10'`` fixed by trace and Hermiticity. The phase
placement is the one produced by the exact short-time split propagator;
the brute-force cross-check lives in the oracle module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bath import _check_times, suppression_factor
from .errors import InvalidState

__all__ = [
    "QubitParams",
    "check_pair_state",
    "check_qubit_state",
    "cptp_check",
    "deviation",
    "evolve_pair",
    "evolve_single",
    "lambda_norm",
    "max_decoherence_analytic",
    "max_decoherence_numeric",
]

log = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-12
QUBIT_PSD_FLOOR = -1e-12
PAIR_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class QubitParams:
    """Tunneling energy ``E_J`` of one qubit, rad/s."""

    e_j: float

    def __post_init__(self):
        if not math.isfinite(self.e_j):
            raise ValueError("e_j must be finite")


def _qubit_margins(a: np.ndarray, trace: float = 1.0):
    # Hermiticity defect, gap to the given trace and lowest eigenvalue of the
    # Hermitized matrix for a 2x2 stack, in closed form from its four
    # entries, each computed only when the check before it has passed. The
    # defect, 2 |Im a_ii| or |a01 - conj(a10)|, and the trace gap have the
    # bits of _matrix_margins on finite input; the eigenvalue
    # (p + q)/2 - hypot((p - q)/2, |b|) of [[p, b], [conj(b), q]], with
    # b = (a01 + conj(a10))/2, agrees with its eigvalsh to rounding.
    diag = a.diagonal(axis1=-2, axis2=-1)
    a01, c10 = a[..., 0, 1], a[..., 1, 0].conj()
    yield max(2.0 * float(np.abs(diag.imag).max()), float(np.abs(a01 - c10).max()))
    sums = diag[..., 0] + diag[..., 1]
    yield float(np.abs(sums - trace).max())
    p, q = diag.real[..., 0], diag.real[..., 1]
    yield 0.5 * float((sums.real - np.hypot(p - q, np.abs(a01 + c10))).min())


def _matrix_margins(a: np.ndarray):
    # The same three margins for square matrices of any size, by eigvalsh.
    yield float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    yield float(np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0).max())
    yield float(np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2))).min())


def _check_state(rho, dim: int, psd_floor: float) -> np.ndarray:
    # Each check covers the whole stack; a failure reports the worst state.
    a = np.asarray(rho, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] != (dim, dim) or a.size == 0:
        raise InvalidState(f"expected a {dim}x{dim} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidState("state entries must be finite")
    margins = _qubit_margins(a) if dim == 2 else _matrix_margins(a)
    defect = next(margins)
    if defect > HERMITICITY_TOL:
        raise InvalidState(f"not Hermitian, defect {defect:.3e}")
    trace_gap = next(margins)
    if trace_gap > TRACE_TOL:
        raise InvalidState(f"trace differs from one by {trace_gap:.3e}")
    lowest = next(margins)
    if lowest < psd_floor:
        raise InvalidState(f"negative eigenvalue {lowest:.3e}")
    return a


def check_qubit_state(rho) -> np.ndarray:
    """Validate a qubit state or stack ``(..., 2, 2)``; returns it as an ndarray."""
    return _check_state(rho, 2, QUBIT_PSD_FLOOR)


def check_pair_state(rho) -> np.ndarray:
    """Validate a two-qubit state or stack ``(..., 4, 4)``; returns it as an ndarray."""
    return _check_state(rho, 4, PAIR_PSD_FLOOR)


def _times(c, z: np.ndarray) -> np.ndarray:
    # c * z rounding each product, as a scalar complex product does. numpy's
    # array loop may fuse multiply-adds, which would give a state different
    # last bits alone and in a stack.
    out = np.empty_like(z)
    out.real = c.real * z.real - c.imag * z.imag
    out.imag = c.real * z.imag + c.imag * z.real
    return out


def _apply_single(rho: np.ndarray, e_j: float, g_value, t) -> np.ndarray:
    # Linear action on any 2x2 matrix or stack of them; no input validation,
    # so it can serve both state evolution and the process-matrix construction.
    # Scalars g_value and t give numpy-scalar weights, 1-D arrays one point
    # per leading entry of rho with the bits of the scalar call (numpy's exp).
    delta, ph = np.exp(-4.0 * g_value), np.exp(-1j * e_j * t)
    if np.ndim(delta):
        shape = (-1,) + (1,) * (rho.ndim - 3)
        delta, ph = delta.reshape(shape), ph.reshape(shape)
    up, dn = 0.5 * (1.0 + delta), 0.5 * (1.0 - delta)
    c, c_bar = up * ph, up * ph.conj()
    out = np.empty(rho.shape, dtype=complex)
    out[..., 0, 0] = up * rho[..., 0, 0] + dn * rho[..., 1, 1]
    out[..., 0, 1] = _times(c, rho[..., 0, 1]) + dn * rho[..., 1, 0]
    out[..., 1, 0] = _times(c_bar, rho[..., 1, 0]) + dn * rho[..., 0, 1]
    out[..., 1, 1] = up * rho[..., 1, 1] + dn * rho[..., 0, 0]
    return out


def _evolve_checked(a: np.ndarray, e_j: float, g_value: float, t: float) -> np.ndarray:
    # The channel on a state or stack already validated, Hermitized to
    # suppress rounding drift: the bits of (out + out^dag)/2, entrywise.
    out = _apply_single(a, e_j, g_value, t)
    a01, a10 = out[..., 0, 1], out[..., 1, 0]
    out[..., 0, 1], out[..., 1, 0] = 0.5 * (a01 + a10.conj()), 0.5 * (a10 + a01.conj())
    out.imag[..., (0, 1), (0, 1)] = 0.0  # (z + conj(z))/2 is exactly Re z
    return out


def evolve_single(rho0, params: QubitParams, g_value: float, t: float) -> np.ndarray:
    """Evolve one qubit, or a stack ``(..., 2, 2)`` of states, for time ``t``.

    ``g_value`` must be the decoherence exponent evaluated at the same
    ``t`` by the bath module. Populations mix with weights
    ``(1 +- delta)/2`` and the coherence precesses at ``E_J`` while
    contracting; the output is Hermitized to suppress rounding drift.
    """
    a = check_qubit_state(rho0)
    if not g_value >= 0.0:
        raise ValueError("g_value must be nonnegative")
    _check_times(t)
    # a Python float's -4 G overflows to -inf silently, a numpy scalar's warns
    return _evolve_checked(a, params.e_j, float(g_value), t)


def _pair_points(g1, g2, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The grid of (g1, g2, t) points, from three scalars or three 1-D arrays
    # of one nonzero length, as three 1-D float arrays.
    arrays = [np.asarray(x, dtype=float) for x in (g1, g2, t)]
    if len({x.shape for x in arrays}) != 1 or arrays[0].ndim > 1 or not arrays[0].size:
        raise ValueError(
            "g1, g2 and t must be scalars or 1-D arrays of one nonzero length"
        )
    gs1, gs2, ts = (np.atleast_1d(x) for x in arrays)
    if not ((gs1 >= 0.0).all() and (gs2 >= 0.0).all()):
        raise ValueError("exponents must be nonnegative")
    _check_times(ts)
    return gs1, gs2, ts


def evolve_pair(rho0, p1: QubitParams, p2: QubitParams, g1, g2, t) -> np.ndarray:
    """Evolve a joint two-qubit state under independent dephasing channels.

    The single-qubit kernel acts on qubit 1's axes of the joint state, then
    on qubit 2's, and ``(out + out^dag)/2`` Hermitizes the result: a tensor
    product of superoperators, which maps product inputs to the tensor
    product of the single-qubit outputs.

    ``g1``, ``g2`` and ``t`` are scalars, giving one ``(4, 4)`` state, or
    1-D arrays of one length ``n`` (a time grid), giving an ``(n, 4, 4)``
    stack with each point's state equal, bit for bit, to the scalar call.
    ``rho0`` is one state and is validated once per call.
    """
    a = check_pair_state(rho0)
    if a.ndim != 2:
        raise InvalidState(f"expected a 4x4 matrix, got shape {a.shape}")
    gs1, gs2, ts = _pair_points(g1, g2, t)
    # [point, i2, j2, i1, j1], then [point, i1, j1, i2, j2] for qubit 2
    out = a.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2)
    with np.errstate(over="ignore"):  # -4 G past float range: delta = 0
        out = _apply_single(np.broadcast_to(out, ts.shape + out.shape), p1.e_j, gs1, ts)
        out = _apply_single(out.transpose(0, 3, 4, 1, 2), p2.e_j, gs2, ts)
    out = out.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    out = 0.5 * (out + out.conj().swapaxes(-1, -2))
    return out if np.ndim(t) else out[0]


def deviation(rho_real, rho_ideal) -> np.ndarray:
    """Difference of two valid qubit states (or stacks); Hermitian and traceless."""
    a = check_qubit_state(rho_real)
    b = check_qubit_state(rho_ideal)
    return a - b


def lambda_norm(sigma) -> float | np.ndarray:
    """Norm ``sqrt(|sigma_10|^2 + |sigma_11|^2)`` of a deviation operator.

    For a traceless Hermitian 2x2 matrix this equals its largest
    eigenvalue. A stack ``(..., 2, 2)`` gives an array of norms.
    """
    a = np.asarray(sigma, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] != (2, 2) or a.size == 0:
        raise InvalidState(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidState("deviation entries must be finite")
    margins = _qubit_margins(a, trace=0.0)
    defect = next(margins)
    if defect > HERMITICITY_TOL:
        raise InvalidState(f"deviation not Hermitian, defect {defect:.3e}")
    trace_size = next(margins)
    if trace_size > TRACE_TOL:
        raise InvalidState(f"deviation not traceless, |trace| {trace_size:.3e}")
    row = a[..., 1, :]
    # hypot, as abs() of a complex scalar; numpy's array abs rounds differently
    h = np.hypot(row.real, row.imag)
    norms = np.sqrt(h[..., 0] * h[..., 0] + h[..., 1] * h[..., 1])
    return float(norms) if a.ndim == 2 else norms


def max_decoherence_analytic(g_value):
    """Largest deviation norm over initial states: ``(1 - exp(-4 G))/2``.

    Scalar or array, as ``suppression_factor``, whose bits and errors it keeps.
    """
    return 0.5 * (1.0 - suppression_factor(g_value))


def max_decoherence_numeric(
    params: QubitParams, g_value: float, t: float, grid_size: int
) -> float:
    """Brute-force maximum of the deviation norm over pure initial states.

    Scans ``grid_size**2`` Bloch angles plus both poles in one array pass,
    comparing the dephased channel against the purely unitary one for
    each, and is expected to approach :func:`max_decoherence_analytic`
    from below as the grid refines.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    thetas = np.linspace(0.0, math.pi, grid_size + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    # both poles (at phi = 0) first, then theta-major over the grid; cos and
    # sin once per theta and exp once per phi, broadcast to every state
    half = 0.5 * np.concatenate(([0.0, math.pi], thetas))
    amp1 = np.sin(half)[:, None] * np.exp(1j * phis)
    vec = np.empty((grid_size**2 + 2, 2), dtype=complex)
    vec[:, 0] = np.repeat(np.cos(half), [1, 1] + [grid_size] * grid_size)
    vec[:2, 1], vec[2:, 1] = amp1[:2, 0], amp1[2:].ravel()
    rho0 = vec[:, :, None] * vec.conj()[:, None, :]
    dephased = evolve_single(rho0, params, g_value, t)
    # rho0 passed the check in evolve_single; deviation checks both outputs
    sigma = deviation(dephased, _evolve_checked(rho0, params.e_j, 0.0, t))
    return max(0.0, float(lambda_norm(sigma).max()))


def cptp_check(p: QubitParams, g_value: float, t: float) -> bool:
    """Whether the channel is completely positive and trace preserving.

    Applies the map to all four matrix units, assembles the corresponding
    state representation (Choi construction), and checks positivity plus
    trace preservation. Returns False with a logged diagnostic when either
    fails, or when the exponent makes the images non-finite. The exponent is
    deliberately unconstrained here so nonphysical variants (for example a
    sign-flipped exponent) can be probed; ``t`` is not, and a negative or
    non-finite one raises ``ValueError``.
    """
    _check_times(t)
    units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # units[i, j] = |i><j|
    with np.errstate(over="ignore", invalid="ignore"):
        images = _apply_single(units, p.e_j, g_value, t)
    if not np.isfinite(images).all():
        log.warning("channel images not finite at exponent %r", g_value)
        return False
    gaps = np.abs(np.trace(images, axis1=-2, axis2=-1) - np.eye(2))
    i, j = np.unravel_index(gaps.argmax(), gaps.shape)
    if gaps[i, j] > 1e-10:
        log.warning(
            "trace not preserved on basis unit (%d,%d): defect %.3e", i, j, gaps[i, j]
        )
        return False
    choi = images.transpose(0, 2, 1, 3).reshape(4, 4)
    defect = float(np.abs(choi - choi.conj().T).max())
    if defect > 1e-10:
        log.warning("choi matrix not Hermitian, defect %.3e", defect)
        return False
    lowest = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    if lowest < -1e-10:
        log.warning("choi matrix has negative eigenvalue %.6e", lowest)
        return False
    return True
