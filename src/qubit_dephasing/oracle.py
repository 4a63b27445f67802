"""Brute-force reference dynamics of one qubit in a small bosonic bath.

Everything here works in the full qubit-times-bath Hilbert space with
truncated Fock ladders and stays deliberately independent of the analytic
channel it validates. Reduced qubit states enter and leave in the
computational (sigma_z) basis; :func:`to_eigenbasis` converts to the
energy eigenbasis used by the channel module, with the higher-energy
eigenstate ``(|0> - |1>)/sqrt(2)`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import DiscreteBath, Temperature, g_discrete
from .channel import QubitParams, check_qubit_state, evolve_single
from .errors import DimensionTooLarge, NonHermitian
from .qmath import MAX_EXPONENTIAL_DIM, hermitian_spectrum, spectral_propagator

__all__ = [
    "FockMode",
    "OracleSystem",
    "bath_coupling_operator",
    "bath_free_hamiltonian",
    "build_hamiltonian",
    "channel_discrepancy",
    "check_thermal_tail",
    "dual_model_hamiltonian",
    "exact_evolve",
    "from_eigenbasis",
    "lowering_operator",
    "split_deviation",
    "split_evolve",
    "system_hamiltonian",
    "thermal_bath_state",
    "to_eigenbasis",
    "trace_out_bath",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

# Columns are the energy eigenstates of -E_J/2 sigma_x, higher energy first.
_EIGENBASIS = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)

# Largest admissible truncated thermal weight beyond the Fock cutoff.
THERMAL_TAIL_LIMIT = 1e-6


@dataclass(frozen=True)
class FockMode:
    """One bath mode with a truncated Fock ladder of ``n_max + 1`` levels."""

    omega: float
    g: complex
    n_max: int

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        object.__setattr__(self, "g", complex(self.g))

    @property
    def levels(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class OracleSystem:
    """One qubit of tunneling energy ``e_j`` coupled to a list of Fock modes."""

    e_j: float
    modes: tuple[FockMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if self.total_dim > MAX_EXPONENTIAL_DIM:
            raise DimensionTooLarge(
                f"total dimension {self.total_dim} exceeds cap {MAX_EXPONENTIAL_DIM}"
            )

    @property
    def bath_dim(self) -> int:
        dim = 1
        for mode in self.modes:
            dim *= mode.levels
        return dim

    @property
    def total_dim(self) -> int:
        return 2 * self.bath_dim

    # Spectra of the time-independent generators, diagonalized on first use
    # and kept as long as the system: an evolve call only rebuilds exp(-i w t).
    # A build that raises is not cached.

    @cached_property
    def _full_spectrum(self):
        return _frozen_spectrum(build_hamiltonian(self))

    @cached_property
    def _qubit_spectrum(self):
        return _frozen_spectrum(system_hamiltonian(self))

    @cached_property
    def _interaction_spectrum(self):
        return _frozen_spectrum(
            np.kron(_ID2, bath_free_hamiltonian(self.modes))
            + np.kron(_SIGMA_Z, bath_coupling_operator(self.modes))
        )


def _frozen_spectrum(h: np.ndarray):
    spectrum = hermitian_spectrum(h)
    if spectrum is None:
        raise NonHermitian("oracle generator is not Hermitian")
    for part in spectrum:
        part.flags.writeable = False
    return spectrum


def lowering_operator(n_levels: int) -> np.ndarray:
    """Truncated boson annihilation operator on ``n_levels`` Fock states."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1).astype(complex)


def _lift(modes: tuple[FockMode, ...], index: int, op: np.ndarray) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k, mode in enumerate(modes):
        out = np.kron(out, op if k == index else np.eye(mode.levels, dtype=complex))
    return out


def bath_free_hamiltonian(modes: tuple[FockMode, ...]) -> np.ndarray:
    """Sum of ``omega_k b_k^dag b_k`` over the bath space."""
    dim = 1
    for mode in modes:
        dim *= mode.levels
    h = np.zeros((dim, dim), dtype=complex)
    for k, mode in enumerate(modes):
        b = lowering_operator(mode.levels)
        h += mode.omega * _lift(modes, k, b.conj().T @ b)
    return h


def bath_coupling_operator(modes: tuple[FockMode, ...]) -> np.ndarray:
    """Sum of ``conj(g_k) b_k + g_k b_k^dag`` over the bath space."""
    dim = 1
    for mode in modes:
        dim *= mode.levels
    op = np.zeros((dim, dim), dtype=complex)
    for k, mode in enumerate(modes):
        b = lowering_operator(mode.levels)
        op += _lift(modes, k, np.conj(mode.g) * b + mode.g * b.conj().T)
    return op


def system_hamiltonian(sys: OracleSystem) -> np.ndarray:
    """Bare qubit part ``-E_J/2 sigma_x``."""
    return -0.5 * sys.e_j * _SIGMA_X


def build_hamiltonian(sys: OracleSystem) -> np.ndarray:
    """Full Hamiltonian: qubit + free bath + sigma_z-conditioned coupling.

    Hermitian by construction; the coupling pairs ``conj(g) b`` with
    ``g b^dag`` entry for entry.
    """
    id_bath = np.eye(sys.bath_dim, dtype=complex)
    return (
        np.kron(system_hamiltonian(sys), id_bath)
        + np.kron(_ID2, bath_free_hamiltonian(sys.modes))
        + np.kron(_SIGMA_Z, bath_coupling_operator(sys.modes))
    )


def dual_model_hamiltonian(sys: OracleSystem) -> np.ndarray:
    """Partner model with sigma_z system term and sigma_x coupling.

    Conjugating by a Hadamard on the qubit swaps sigma_x and sigma_z, so
    this Hamiltonian is exactly isospectral to :func:`build_hamiltonian`
    at matched parameters.
    """
    id_bath = np.eye(sys.bath_dim, dtype=complex)
    return (
        np.kron(-0.5 * sys.e_j * _SIGMA_Z, id_bath)
        + np.kron(_ID2, bath_free_hamiltonian(sys.modes))
        + np.kron(_SIGMA_X, bath_coupling_operator(sys.modes))
    )


def check_thermal_tail(beta: float, omega: float, n_max: int) -> None:
    """Raise ``ValueError`` unless one mode's truncated Gibbs weights are usable.

    ``beta * omega`` must be finite, or the weights come out NaN. The
    untruncated weight beyond the cutoff, ``exp(-beta omega (n_max + 1))``,
    must stay below :data:`THERMAL_TAIL_LIMIT`; the cutoff is otherwise too
    small for the temperature.
    """
    if not math.isfinite(beta * omega):
        raise ValueError(f"beta * omega = {beta * omega:.3e} is not finite")
    tail = math.exp(-beta * omega * (n_max + 1))
    if tail > THERMAL_TAIL_LIMIT:
        raise ValueError(
            f"thermal weight {tail:.3e} beyond n_max={n_max} exceeds "
            f"{THERMAL_TAIL_LIMIT:.0e}; raise the cutoff"
        )


def thermal_bath_state(sys: OracleSystem, temp: Temperature) -> np.ndarray:
    """Product of per-mode truncated Gibbs states, renormalized to trace one.

    At zero temperature this is the vacuum projector. At finite
    temperature every mode must pass :func:`check_thermal_tail`.
    """
    theta = np.eye(1, dtype=complex)
    for mode in sys.modes:
        if temp.beta is None:
            gibbs = np.zeros((mode.levels, mode.levels), dtype=complex)
            gibbs[0, 0] = 1.0
        else:
            check_thermal_tail(temp.beta, mode.omega, mode.n_max)
            weights = np.exp(-temp.beta * mode.omega * np.arange(mode.levels))
            gibbs = np.diag(weights / weights.sum()).astype(complex)
        theta = np.kron(theta, gibbs)
    return theta


def trace_out_bath(joint: np.ndarray, bath_dim: int) -> np.ndarray:
    """Partial trace over the bath factor of a qubit-times-bath operator.

    Takes one operator or a stack ``(..., 2B, 2B)`` with ``B = bath_dim``.
    """
    a = np.asarray(joint, dtype=complex)
    dim = 2 * bath_dim
    if a.ndim < 2 or a.shape[-2:] != (dim, dim):
        raise ValueError(f"expected shape (..., {dim}, {dim}), got {a.shape}")
    stack = a.reshape(*a.shape[:-2], 2, bath_dim, 2, bath_dim)
    return np.einsum("...ikjk->...ij", stack)


def to_eigenbasis(rho: np.ndarray) -> np.ndarray:
    """Rewrite a qubit operator from the computational to the energy eigenbasis.

    Takes one operator or a stack ``(..., 2, 2)``.
    """
    return _EIGENBASIS.conj().T @ np.asarray(rho, dtype=complex) @ _EIGENBASIS


def from_eigenbasis(rho: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_eigenbasis`."""
    return _EIGENBASIS @ np.asarray(rho, dtype=complex) @ _EIGENBASIS.conj().T


def _reduced_map(
    sys: OracleSystem, temp: Temperature, u: np.ndarray, half: np.ndarray
) -> np.ndarray:
    """The qubit map ``rho -> tr_B[U (rho x theta) U^dag]`` as ``L[i, j, k, l]``.

    ``U = (half x 1) u (half x 1)``, and ``out[i, j] = sum L[i, j, k, l] rho[k, l]``.
    ``theta`` is diagonal with weights ``p_c``, so
    ``L[i,j,k,l] = sum_{b,c} p_c U[ib,kc] conj(U[jb,lc])`` needs only the
    occupied bath columns ``c``: one at zero temperature, all ``B`` above.
    """
    weights = np.diag(thermal_bath_state(sys, temp)).real
    occupied = np.flatnonzero(weights)
    b = sys.bath_dim
    cols = u.reshape(2, b, 2, b)[..., occupied] * np.sqrt(weights[occupied])
    # rows (i, k), columns (b, c); U[ib,kc] = sum half[i,p] u[pb,rc] half[r,k]
    # acts on the row pair alone
    a = np.kron(half, half.T) @ cols.transpose(0, 2, 1, 3).reshape(4, -1)
    return (a @ a.conj().T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)


def _propagate(
    sys: OracleSystem,
    rho_qubit0,
    temp: Temperature,
    u: np.ndarray,
    half: np.ndarray = _ID2,
) -> np.ndarray:
    rho = check_qubit_state(rho_qubit0)
    return np.einsum("ijkl,...kl->...ij", _reduced_map(sys, temp, u, half), rho)


def exact_evolve(
    sys: OracleSystem, rho_qubit0, temp: Temperature, t: float
) -> np.ndarray:
    """Reduced qubit state after exact evolution of qubit plus bath.

    Takes one qubit state or a stack ``(..., 2, 2)``; the propagator, the
    thermal bath state and the reduced qubit map they give are built once
    per call, the propagator from the Hamiltonian's spectrum that ``sys``
    diagonalizes once.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    u = spectral_propagator(sys._full_spectrum, t)
    return _propagate(sys, rho_qubit0, temp, u)


def split_evolve(
    sys: OracleSystem, rho_qubit0, temp: Temperature, t: float
) -> np.ndarray:
    """Reduced qubit state under the symmetric split propagator.

    The qubit half-steps sandwich one full step of the bath plus coupling,
    which carries a third-order local error in ``t`` relative to
    :func:`exact_evolve`. Takes one qubit state or a stack ``(..., 2, 2)``,
    like :func:`exact_evolve`.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    half = spectral_propagator(sys._qubit_spectrum, 0.5 * t)
    u = spectral_propagator(sys._interaction_spectrum, t)
    return _propagate(sys, rho_qubit0, temp, u, half)


def _sample_pure_states(samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = np.empty((samples, 2, 2), dtype=complex)
    for k in range(samples):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        states[k] = np.outer(vec, vec.conj())
    return states


def split_deviation(
    sys: OracleSystem, temp: Temperature, t: float, samples: int, seed: int = 7
) -> float:
    """Largest entrywise gap between split and exact reduced dynamics.

    Maximized over ``samples`` reproducibly seeded pure initial states;
    halving ``t`` should shrink the result roughly eightfold while the
    split error stays in its third-order regime.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rho0 = _sample_pure_states(samples, seed)
    gaps = np.abs(split_evolve(sys, rho0, temp, t) - exact_evolve(sys, rho0, temp, t))
    return float(gaps.max())


def channel_discrepancy(
    sys: OracleSystem, temp: Temperature, t: float, samples: int, seed: int = 7
) -> float:
    """Largest entrywise gap between the split propagator and the channel.

    Random pure qubit states (fixed seed, uniform over the Bloch sphere)
    are pushed through :func:`split_evolve` and through the analytic
    channel fed with the matching discrete-bath exponent; both outputs are
    compared in the energy eigenbasis. This is the measurement that pins
    down the channel's off-diagonal phase convention.
    """
    if samples < 4:
        raise ValueError("need at least 4 samples")
    if sys.modes:
        bath = DiscreteBath(tuple((m.omega, m.g) for m in sys.modes))
        g_value = g_discrete(bath, temp, t)
    else:
        g_value = 0.0
    params = QubitParams(e_j=sys.e_j)
    rho0 = _sample_pure_states(samples, seed)
    via_split = to_eigenbasis(split_evolve(sys, rho0, temp, t))
    via_channel = evolve_single(to_eigenbasis(rho0), params, g_value, t)
    return float(np.abs(via_split - via_channel).max())
