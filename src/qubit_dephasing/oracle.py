"""Brute-force reference dynamics of one qubit in a small bosonic bath.

Everything here works on truncated Fock ladders, the exact step on the two
parity blocks of the qubit-times-bath Hilbert space and the split step mode
by mode, and stays deliberately independent of the analytic channel it
validates. The gauge ``D = prod_k exp(i arg(g_k) n_k)`` takes every
generator with couplings ``|g_k|`` to the one with ``g_k`` and commutes
with every bath state used here, so the reduced maps come from real
symmetric spectra. Each map is a sum over Bohr frequencies, ``sum_{m,n}
exp(-i (w[m] - w'[n]) t) K[m, n]``, whose real kernels ``K`` are built once
per system and temperature. When the bath state occupies one level, its
vacuum (at zero temperature, or where the excited Gibbs weights underflow),
no kernel is built: the maps need only the propagator columns ``U[:, 0] =
V (e o V[0])``, and the system keeps the vacuum rows ``V[0]``. No evolve
forms a propagator larger than the qubit's. Each system builds its
spectra, the stacked eigenvalues of its two parity blocks, its bath
parities and dimension and its ``DiscreteBath`` once. Reduced qubit
states enter and leave in the computational (sigma_z) basis;
:func:`to_eigenbasis` converts to the energy eigenbasis used by the channel
module, with the higher-energy eigenstate ``(|0> - |1>)/sqrt(2)`` first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .bath import DiscreteBath, Temperature, _check_times, g_discrete
from .channel import _evolve_checked, check_qubit_state
from .errors import DimensionTooLarge
from .qmath import (
    MAX_EXPONENTIAL_DIM,
    hermitian_spectrum,
    spectral_phases,
    spectral_propagator,
)

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

# Reduced maps each system keeps: one halving grid, 4 times x 2 kinds.
_MAP_MEMO_SIZE = 8

# Kernel sets each system keeps: both steps at two temperatures.
_KERNEL_MEMO_SIZE = 4


def _check_ladder(omega: float, g: complex, n_max: int, prefix: str = "") -> None:
    # Raise ValueError, naming the field as prefix + name, when the largest
    # entry a mode puts in its generators is not finite. Each entry is
    # computed as the generators compute it: omega sqrt(n)**2 on the
    # diagonal, |g| sqrt(n) beside it.
    top = math.sqrt(n_max)
    if not math.isfinite(omega * top**2):
        raise ValueError(f"{prefix}omega * {prefix}n_max must be finite")
    if not math.isfinite(math.hypot(g.real, g.imag) * top):
        raise ValueError(f"|{prefix}g| * sqrt({prefix}n_max) must be finite")


@dataclass(frozen=True)
class FockMode:
    """One bath mode with a truncated Fock ladder of ``n_max + 1`` levels."""

    omega: float
    g: complex
    n_max: int

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        object.__setattr__(self, "g", complex(self.g))
        if not cmath.isfinite(self.g):
            raise ValueError("g must be finite")
        _check_ladder(self.omega, self.g, self.n_max)

    @property
    def levels(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class OracleSystem:
    """One qubit of tunneling energy ``e_j`` coupled to a list of Fock modes."""

    e_j: float
    modes: tuple[FockMode, ...]

    def __post_init__(self):
        if not math.isfinite(self.e_j):
            raise ValueError("e_j must be finite")
        object.__setattr__(self, "modes", tuple(self.modes))
        # no evolve builds a matrix larger than the bath space
        if self.bath_dim > MAX_EXPONENTIAL_DIM:
            raise DimensionTooLarge(
                f"bath dimension {self.bath_dim} exceeds cap {MAX_EXPONENTIAL_DIM}"
            )

    @cached_property
    def bath_dim(self) -> int:
        return math.prod(mode.levels for mode in self.modes)

    @property
    def total_dim(self) -> int:
        return 2 * self.bath_dim

    # Spectra of the time-independent generators, and the constants derived
    # from the system alone, built on first use and kept as long as the
    # system: an evolve call only rebuilds exp(-i w t). A build that raises
    # is not cached.

    @cached_property
    def _parity(self) -> np.ndarray:
        return _read_only(_bath_parity(self.modes))

    @cached_property
    def _block_spectra(self):
        # P = sigma_x (-1)^(sum_k n_k) commutes with the Hamiltonian; on its
        # sectors |s;b> = (|0,b> + s pi_b |1,b>)/sqrt(2), s = +-1, the
        # Hamiltonian is H_B + V - s (E_J/2) diag(pi), real in the gauge
        h = _real_bath_generator(self.modes)
        tunneling = np.diag(0.5 * self.e_j * self._parity)
        return _frozen_spectrum(h - tunneling), _frozen_spectrum(h + tunneling)

    @cached_property
    def _block_eigenvalues(self) -> np.ndarray:
        # both blocks' eigenvalues as the columns of one (B, 2) array, so
        # that one spectral_phases call serves a time
        return _read_only(np.stack([w for w, _ in self._block_spectra], axis=1))

    @cached_property
    def _qubit_spectrum(self):
        return _frozen_spectrum(system_hamiltonian(self))

    @cached_property
    def _mode_spectra(self):
        # on sigma_z = +-1 the split step's bath-plus-coupling generator is
        # the sum over modes of h_k +- v_k, and h_k - v_k = P (h_k + v_k) P
        # with P = diag((-1)^n): one spectrum of h_k + v_k serves both signs
        return tuple(_frozen_spectrum(_real_bath_generator((m,))) for m in self.modes)

    @cached_property
    def _discrete_bath(self) -> DiscreteBath:
        # the modes as the analytic channel's bath; only a system with modes
        # asks for it
        return DiscreteBath(tuple((m.omega, m.g) for m in self.modes))

    @cached_property
    def _kernels(self) -> dict:
        # (kernel builder, temp) -> that step's read-only Bohr-sum kernels,
        # or vacuum rows, oldest first; see _kernel
        return {}

    @cached_property
    def _reduced_maps(self) -> dict:
        # (map builder, temp, t) -> the read-only parts of that reduced map,
        # oldest first; see _reduced_map
        return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen_spectrum(h: np.ndarray):
    spectrum = hermitian_spectrum(h)
    for part in spectrum:
        _read_only(part)
    return spectrum


def _real_bath_generator(modes: tuple[FockMode, ...]) -> np.ndarray:
    # H_B + V with each g_k replaced by |g_k|: the gauge of the module
    # docstring, under which every reduced map is unchanged
    gauged = tuple(replace(mode, g=abs(mode.g)) for mode in modes)
    return (bath_free_hamiltonian(gauged) + bath_coupling_operator(gauged)).real


def lowering_operator(n_levels: int) -> np.ndarray:
    """Truncated boson annihilation operator on ``n_levels`` Fock states."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1).astype(complex)


def bath_free_hamiltonian(modes: tuple[FockMode, ...]) -> np.ndarray:
    """Sum of ``omega_k b_k^dag b_k`` over the bath space."""
    diagonal = np.zeros(1)
    for mode in modes:
        # sqrt(n)**2, the bits of (b^dag b).diagonal(), not arange(n)
        number = np.sqrt(np.arange(float(mode.levels))) ** 2
        diagonal = np.add.outer(diagonal, mode.omega * number).ravel()
    return np.diag(diagonal).astype(complex)


def bath_coupling_operator(modes: tuple[FockMode, ...]) -> np.ndarray:
    """Sum of ``conj(g_k) b_k + g_k b_k^dag`` over the bath space."""
    levels = [mode.levels for mode in modes]
    dim = math.prod(levels)
    op = np.zeros((dim, dim), dtype=complex)
    for k, mode in enumerate(modes):
        b = lowering_operator(mode.levels)
        before, after = math.prod(levels[:k]), math.prod(levels[k + 1 :])
        # identities on the other modes: only entries that keep their levels
        i, j = np.arange(before)[:, None], np.arange(after)
        blocks = op.reshape(before, mode.levels, after, before, mode.levels, after)
        blocks[i, :, j, i, :, j] += np.conj(mode.g) * b + mode.g * b.conj().T
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
    return np.diag(_bath_weights(sys, temp)).astype(complex)


def _mode_weights(mode: FockMode, temp: Temperature) -> np.ndarray:
    # one mode's truncated Gibbs weights; the vacuum alone at zero temperature
    if temp.beta is None:
        gibbs = np.zeros(mode.levels)
        gibbs[0] = 1.0
        return gibbs
    check_thermal_tail(temp.beta, mode.omega, mode.n_max)
    gibbs = np.exp(-temp.beta * mode.omega * np.arange(mode.levels))
    return gibbs / gibbs.sum()


def _bath_weights(sys: OracleSystem, temp: Temperature) -> np.ndarray:
    # diagonal of thermal_bath_state: products of the per-mode Gibbs weights
    weights = np.ones(1)
    for mode in sys.modes:
        weights = np.outer(weights, _mode_weights(mode, temp)).ravel()
    return weights


def _bath_parity(modes: tuple[FockMode, ...]) -> np.ndarray:
    # (-1)^(sum_k n_k) of each bath level, in the order of _bath_weights
    parity = np.ones(1)
    for mode in modes:
        parity = np.outer(parity, (-1.0) ** np.arange(mode.levels)).ravel()
    return parity


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


def _memoized(memo: dict, size: int, key, build):
    # build()'s parts, kept read-only in memo under key; the oldest of size
    # entries goes first. A build that raises is not kept.
    if key not in memo:
        parts = build()
        for part in parts:
            _read_only(part)
        if len(memo) >= size:
            del memo[next(iter(memo))]
        memo[key] = parts
    return memo[key]


def _reduced_map(sys: OracleSystem, build, temp: Temperature, t: float):
    # build(sys, temp, t), kept in sys under (build, temp, t)
    memo, key = sys._reduced_maps, (build, temp, t)
    return _memoized(memo, _MAP_MEMO_SIZE, key, lambda: build(sys, temp, t))


def _kernel(sys: OracleSystem, build, temp: Temperature):
    # build(sys, temp), kept in sys under (build, temp)
    memo, key = sys._kernels, (build, temp)
    return _memoized(memo, _KERNEL_MEMO_SIZE, key, lambda: build(sys, temp))


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    # a @ z for a real matrix a and a complex 2-D z, as one real product over
    # z's interleaved real and imaginary parts: no complex copy of a
    return (a @ np.ascontiguousarray(z).view(float)).view(complex)


def _vacuum_column(v: np.ndarray, phases: np.ndarray, row: np.ndarray) -> np.ndarray:
    # U[:, 0] = V (e o V[0]) of U = V diag(e) V^T, from the kept row V[0]
    return _real_matmul(v, (phases * row)[:, None])[:, 0]


# Dense exact-step kernels, in the order _exact_kernels stacks them: for
# y = 0 and then y = 1, each block pair (s, s'), with 0 for s = +1 and 1 for
# s = -1, with its overlap parities x. The pair (-, +) is the conjugate of
# (+, -), and x = 0 with s = s' has the identity as overlap.
_DENSE_PAIRS = ((0, 0, (1,)), (1, 1, (1,)), (0, 1, (0, 1)))
_DENSE_SECTORS = np.array(
    [(s, s2, x, y) for y in (0, 1) for s, s2, xs in _DENSE_PAIRS for x in xs]
).T


def _sector_coefficients() -> np.ndarray:
    # L[i,j,k,l] = 1/4 sum_{s,s'} s^(i+k) s'^(j+l) T^{xy}_{ss'} with
    # x = (i + j) % 2 and y = (k + l) % 2, as one 16 x 16 matrix from the
    # sums T[s, s', x, y] to the entries of L
    m = np.zeros((2,) * 8)
    for i, j, k, l, s, s2 in np.ndindex(*(2,) * 6):
        sign = (-1.0) ** (s * (i + k) + s2 * (j + l))
        m[i, j, k, l, s, s2, (i + j) % 2, (k + l) % 2] = 0.25 * sign
    return m.reshape(16, 16)


_SECTOR_COEFFICIENTS = _sector_coefficients()


def _exact_kernels(sys: OracleSystem, temp: Temperature):
    # The traces tr(diag(p) Pi^y), y = 0, 1: where the overlap is the
    # identity, each level pairs with itself at Bohr frequency 0 and
    # T^{0y}_{ss} is that constant. With one occupied bath level, the bath
    # sits in its vacuum (level 0 has Gibbs weight one in every mode, and
    # even parity), so T needs only the columns U_s[:, 0]: the kept part is
    # the rows V_s[0] of both blocks. Otherwise an odd level is occupied
    # too, and the kept part is the dense kernels K = (V_s^T Pi^x V_s') o
    # (V_s^T diag(p) Pi^y V_s') of _DENSE_SECTORS, formed from the occupied
    # levels.
    weights = _bath_weights(sys, temp)
    parity = sys._parity
    traces = np.array([weights.sum(), weights @ parity])
    occupied = np.flatnonzero(weights)
    vecs = [v for _, v in sys._block_spectra]
    if occupied.size == 1:
        return np.stack([v[occupied[0]] for v in vecs]), traces
    scales = [(weights * parity**y)[occupied] for y in (0, 1)]
    b = sys.bath_dim
    dense = np.empty((2, _DENSE_SECTORS.shape[1] // 2, b, b))
    slots = iter(dense.swapaxes(0, 1))
    for s, s2, xs in _DENSE_PAIRS:
        left, right = vecs[s], vecs[s2]
        rows, cols = left[occupied].T, right[occupied]
        weighted = np.stack([(rows * scale) @ cols for scale in scales])
        for x in xs:
            overlap = left.T @ (right * parity[:, None]) if x else left.T @ right
            np.multiply(overlap, weighted, out=next(slots))
    return dense.reshape(-1, b, b), traces


def _exact_map(sys: OracleSystem, temp: Temperature, t: float):
    kept, traces = _kernel(sys, _exact_kernels, temp)
    phases = spectral_phases(sys._block_eigenvalues, t)
    sums = np.empty((2, 2, 2, 2), dtype=complex)
    if kept.ndim == 2:
        # the vacuum rows: T^{xy}_{ss'} = sum_b pi_b^x psi_s[b] conj(psi_s'[b])
        # for both y, with the columns psi_s = U_s[:, 0]
        vecs = [v for _, v in sys._block_spectra]
        psi = np.stack([_vacuum_column(vecs[s], phases[:, s], kept[s]) for s in (0, 1)])
        conj = psi.conj().T
        sums[:, :, 0] = (psi @ conj)[..., None]
        sums[:, :, 1] = ((psi * sys._parity) @ conj)[..., None]
    else:
        s, s2, x, y = _DENSE_SECTORS
        # K e_s'^* for both s' at once, then e_s^T of the column each kernel needs
        right = _real_matmul(kept.reshape(-1, sys.bath_dim), phases.conj())
        right = right.reshape(len(kept), sys.bath_dim, 2)[np.arange(len(kept)), :, s2]
        sums[s, s2, x, y] = np.einsum("bn,nb->n", phases[:, s], right)
    for sector in range(2):  # T_ss is real; T_-+ is the conjugate of T_+-
        sums[sector, sector, 0] = traces
        sums[sector, sector, 1] = sums[sector, sector, 1].real
    sums[1, 0] = sums[0, 1].conj()
    return ((_SECTOR_COEFFICIENTS @ sums.ravel()).reshape(2, 2, 2, 2),)


def _exact_step(sys: OracleSystem, rho: np.ndarray, temp: Temperature, t: float):
    (reduced,) = _reduced_map(sys, _exact_map, temp, t)
    return np.einsum("ijkl,...kl->...ij", reduced, rho)


def _split_kernels(sys: OracleSystem, temp: Temperature):
    # F_k = tr(u_+ theta_k u_-^dag) for mode k, with u_+ = V e V^T and
    # u_- = P u_+ P, is e^T K e^* with K = (V^T P V) o (V^T theta_k P V).
    # With theta_k the vacuum it is sum_b pi_b |u_+[b, 0]|^2 instead, and
    # the kept part is the row V[0].
    kernels = []
    for mode, (_, v) in zip(sys.modes, sys._mode_spectra):
        weights = _mode_weights(mode, temp)
        occupied = np.flatnonzero(weights)
        if occupied.size == 1:
            kernels.append(v[occupied[0]])
            continue
        parity = (-1.0) ** np.arange(mode.levels)
        rows = v[occupied]
        weighted = (rows.T * (weights * parity)[occupied]) @ rows
        kernels.append((v.T @ (v * parity[:, None])) * weighted)
    return tuple(kernels)


def _split_map(sys: OracleSystem, temp: Temperature, t: float):
    factor = 1.0
    kernels = _kernel(sys, _split_kernels, temp)
    for (w, v), kernel in zip(sys._mode_spectra, kernels):
        phases = spectral_phases(w, t)
        if kernel.ndim == 1:  # the vacuum row
            weights = np.abs(_vacuum_column(v, phases, kernel)) ** 2
            factor *= weights[::2].sum() - weights[1::2].sum()
        else:
            factor *= phases @ _real_matmul(kernel, phases.conj()[:, None])[:, 0]
    coherence = np.array([[1.0, factor], [np.conj(factor), 1.0]], dtype=complex)
    half = spectral_propagator(sys._qubit_spectrum, 0.5 * t)
    return half, half.conj().T, coherence


def _split_step(sys: OracleSystem, rho: np.ndarray, temp: Temperature, t: float):
    half, half_dag, coherence = _reduced_map(sys, _split_map, temp, t)
    return half @ ((half @ rho @ half_dag) * coherence) @ half_dag


def exact_evolve(
    sys: OracleSystem, rho_qubit0, temp: Temperature, t: float
) -> np.ndarray:
    """Reduced qubit state after exact evolution of qubit plus bath.

    Takes one qubit state or a stack ``(..., 2, 2)``. The Hamiltonian keeps
    the parity ``P = sigma_x (-1)^(sum_k n_k)``, so its propagator is
    ``U[ib,kc] = 1/2 pi_b^i pi_c^k (U_+ + (-1)^(i+k) U_-)[b,c]`` with the
    bath parities ``pi`` and the ``B x B`` propagators ``U_+-`` of the two
    parity blocks, which ``sys`` diagonalizes once as real symmetric
    matrices (the coupling phases are a gauge). The reduced map
    ``L[i,j,k,l] = sum_{b,c} p_c U[ib,kc] conj(U[jb,lc])``, with the bath
    weights ``p_c``, is one constant 16 x 16 matrix applied to the sector
    sums ``T^{xy}_{ss'} = tr(Pi^x U_s diag(p) Pi^y U_s'^dag)``; each is a
    Bohr-frequency sum ``e_s^T K e_s'^*`` over the phases ``e_s = exp(-i
    w_s t)`` of the block spectra, with real kernels ``K`` that ``sys``
    builds once per temperature. When the bath state occupies one level,
    the vacuum, ``sys`` keeps only the two rows ``V_s[0]`` instead, and
    each sum is ``T^{xy}_{ss'} = sum_b pi_b^x psi_s[b] conj(psi_s'[b])``
    over the columns ``psi_s = U_s[:, 0] = V_s (e_s o V_s[0])``, for both
    ``y``. So a new ``(temp, t)`` costs one phase array over both blocks'
    kept eigenvalues and ``O(B^2)`` work, and no propagator; ``sys`` keeps
    the last few maps it built.
    """
    _check_times(t)
    return _exact_step(sys, check_qubit_state(rho_qubit0), temp, t)


def split_evolve(
    sys: OracleSystem, rho_qubit0, temp: Temperature, t: float
) -> np.ndarray:
    """Reduced qubit state under the symmetric split propagator.

    The qubit half-steps sandwich one full step of the bath plus coupling,
    which carries a third-order local error in ``t`` relative to
    :func:`exact_evolve`. On ``sigma_z = +-1`` that step and the bath state
    are products over modes, so the result is ``half (half rho half^dag *
    F) half^dag`` with the coherence factor ``F[p, q] = prod_k tr(u_{p,k}
    theta_k u_{q,k}^dag)`` of the one-mode propagators ``u_{p,k}`` of
    ``h_k +- v_k``. ``F[0, 0] = F[1, 1] = 1``, and ``F[0, 1] =
    conj(F[1, 0])`` is the product over modes of the Bohr-frequency sums
    ``e_k^T K_k e_k^*``, from one real spectrum per mode and one kernel
    per mode and temperature. A mode left in its vacuum keeps the row
    ``V_k[0]`` instead, and its factor is ``sum_b pi_b |psi_{k,b}|^2`` with
    ``psi_k = V_k (e_k o V_k[0])``. Takes one qubit state or a stack
    ``(..., 2, 2)``, and keeps its map in ``sys``, like :func:`exact_evolve`.
    """
    _check_times(t)
    return _split_step(sys, check_qubit_state(rho_qubit0), temp, t)


@lru_cache(maxsize=16)
def _sample_pure_states(samples: int, seed: int) -> np.ndarray:
    # one draw of the same numbers, in the same order, as a per-sample loop
    # of normal(size=2) for the real and then the imaginary parts; kept,
    # read-only and checked, because every measurement of a halving grid
    # asks again and a kept stack cannot change
    draws = np.random.default_rng(seed).normal(size=(samples, 2, 2))
    vecs = draws[:, 0] + 1j * draws[:, 1]
    # np.linalg.norm per vector: its BLAS dot gives the loop's exact bits
    vecs /= np.array([np.linalg.norm(vec) for vec in vecs])[:, None]
    states = vecs[:, :, None] * vecs[:, None, :].conj()
    return check_qubit_state(_read_only(states))


@lru_cache(maxsize=16)
def _sample_eigen_states(samples: int, seed: int) -> np.ndarray:
    # the same draw in the energy eigenbasis, for the channel's side of
    # channel_discrepancy; kept, read-only, beside the draw
    return _read_only(to_eigenbasis(_sample_pure_states(samples, seed)))


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
    _check_times(t)
    rho0 = _sample_pure_states(samples, seed)
    gaps = np.abs(_split_step(sys, rho0, temp, t) - _exact_step(sys, rho0, temp, t))
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
    _check_times(t)
    g_value = g_discrete(sys._discrete_bath, temp, t) if sys.modes else 0.0
    rho0 = _sample_pure_states(samples, seed)
    via_split = to_eigenbasis(_split_step(sys, rho0, temp, t))
    # the stack was checked when drawn, g_discrete's exponent is nonnegative,
    # t has passed the time rule and the system's e_j is finite:
    # evolve_single would check nothing new
    rho0_eigen = _sample_eigen_states(samples, seed)
    via_channel = _evolve_checked(rho0_eigen, sys.e_j, g_value, t)
    return float(np.abs(via_split - via_channel).max())
