"""Seeded operation lists for the three benchmark workloads.

The parameters that set an op's cost are drawn by stratified sampling.
Ops cycle through fixed cells (subcommand and temperature for ``sweep``,
mode count and temperature for ``oracle``); within a cell, the ``j``-th
op takes each cost coordinate from stratum ``j`` of a van der Corput
sequence, shifted inside the stratum by one seeded amount per cell and
coordinate, so every coordinate is still uniform on its range. The shift
moves all of a list's points together, never two of them apart: any
prefix of the list holds nearly the same mix of cheap and expensive ops
whatever the seed, and a run over a whole number of blocks (``BLOCK``)
sees the same workload on every seed. ``oracle`` sizes are short integer
ranges, which any seeded shift reshuffles; they follow a fixed design.
Parameters that do not change the cost are drawn independently for every
op.

Only the standard library is used, so the lists are identical across
numpy versions.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass


def _radical_inverse(j: int, base: int) -> float:
    """``j``-th point of the base-``base`` van der Corput sequence."""
    x, scale = 0.0, 1.0 / base
    while j:
        j, digit = divmod(j, base)
        x += digit * scale
        scale /= base
    return x


def _stratified(j: int, base: int, levels: int, offset: float, shift: float) -> float:
    """Point ``j`` of a van der Corput sequence, staggered and shifted.

    ``shift`` in [0, 1) moves the point across ``base**-levels``, the
    stratum width of the first ``base**levels`` points, so a uniform shift
    keeps every coordinate uniform on [0, 1). A per-cell ``offset``
    staggers the cells, so that the ops of one round through the cells
    fall in different strata.
    """
    return (_radical_inverse(j, base) + offset + shift * base**-levels) % 1.0


def _shifts(seed_key: str, cells: int, coordinates: int) -> list[list[float]]:
    """One seeded shift per cell and cost coordinate."""
    rng = random.Random(f"{seed_key}:shifts")
    return [[rng.random() for _ in range(coordinates)] for _ in range(cells)]


# Irrational stagger step of secondary coordinates.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _int_between(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


# -- sweep: the command line -------------------------------------------------


@dataclass(frozen=True)
class SweepOp:
    """One ``qubit-dephasing`` invocation with an Ohmic bath."""

    command: str  # gfactor, evolve or fig1
    omega_c: float  # rad/s
    beta: float | None  # seconds; None is zero temperature
    horizon: float  # omega_c * t_end
    points: int
    alpha: complex | None  # only evolve passes --alpha

    @property
    def t_end_ps(self) -> float:
        return self.horizon / self.omega_c * 1e12

    @property
    def sweeps(self) -> int:
        return 3 if self.command == "fig1" else 1

    @property
    def items(self) -> int:
        return self.points * self.sweeps

    def argv(self, out: str) -> list[str]:
        args = [
            self.command,
            "--out",
            out,
            "--omega-c",
            repr(self.omega_c),
            "--t-end-ps",
            repr(self.t_end_ps),
            "--points",
            str(self.points),
        ]
        if self.beta is not None:
            args += ["--beta", repr(self.beta)]
        if self.alpha is not None:
            args += ["--alpha", repr(self.alpha)]
        return args


# (subcommand, zero temperature): gfactor : evolve : fig1 = 1 : 1 : 2
SWEEP_CELLS = tuple(
    (command, zero) for command in ("gfactor", "evolve", "fig1", "fig1") for zero in (True, False)
)


def sweep_ops(seed: int):
    """gfactor : evolve : fig1 = 1 : 1 : 2, half at zero temperature.

    The horizon ``omega_c * t_end`` is log-uniform on 5..600 and
    deliberately crosses the point (about 350 at zero temperature) past
    which the Ohmic quadrature raises ``ToleranceNotMet``.
    """
    rng = random.Random(f"sweep:{seed}")
    shifts = _shifts(f"sweep:{seed}", len(SWEEP_CELLS), 4)
    for k in itertools.count():
        j, cell = divmod(k, len(SWEEP_CELLS))
        command, zero = SWEEP_CELLS[cell]
        stagger, golden = cell / len(SWEEP_CELLS), GOLDEN * cell % 1.0
        u_horizon, u_points, u_beta, u_omega = shifts[cell]
        horizon = _log_uniform(_stratified(j, 2, 4, stagger, u_horizon), 5.0, 600.0)
        points = _int_between(_stratified(j, 3, 3, golden, u_points), 40, 120)
        # beta omega_c sets the cost at finite temperature
        beta = None
        if not zero:
            beta = _log_uniform(_stratified(j, 5, 2, golden, u_beta), 1e-13, 1e-11)
        omega_c = 5e11 + 1.5e12 * _stratified(j, 7, 1, stagger, u_omega)
        alpha = None
        if command == "evolve":
            alpha = _log_uniform(rng.random(), 0.25, 4.0) * cmath.exp(2j * math.pi * rng.random())
        yield SweepOp(command, omega_c, beta, horizon, points, alpha)


# -- bloch_scan: the worst-case decoherence search -------------------------------


@dataclass(frozen=True)
class BlochOp:
    """One ``max_decoherence_numeric`` call."""

    e_j: float
    g: float
    t: float
    grid: int

    @property
    def items(self) -> int:
        return self.grid * self.grid + 2


def bloch_ops(seed: int):
    """Grid 24..64 stratified; ``g`` in [0, 0.5], ``e_j`` and ``t`` drawn freely."""
    rng = random.Random(f"bloch_scan:{seed}")
    [[u_grid]] = _shifts(f"bloch_scan:{seed}", 1, 1)
    for j in itertools.count():
        grid = _int_between(_stratified(j, 2, 5, 0.0, u_grid), 24, 64)
        yield BlochOp(
            e_j=_log_uniform(rng.random(), 5e9, 2e10),
            g=0.5 * rng.random(),
            t=_log_uniform(rng.random(), 1e-13, 2e-11),
            grid=grid,
        )


# -- oracle: brute-force channel validation -----------------------------------


@dataclass(frozen=True)
class OracleOp:
    """Validation of one qubit plus one or two Fock modes.

    ``modes`` holds ``(omega, g, n_max)`` triples. The op runs
    ``split_deviation`` at the four times of the ``run_oracle_check``
    halving grid and ``channel_discrepancy`` at the first three.
    """

    e_j: float
    modes: tuple[tuple[float, complex, int], ...]
    beta: float | None
    t_base: float
    samples: int

    @property
    def dim(self) -> int:
        dim = 2
        for _, _, n_max in self.modes:
            dim *= n_max + 1
        return dim

    @property
    def items(self) -> int:
        # sample states pushed through a propagator: split and exact at four
        # times, then split once more at three times
        return 8 * self.samples + 3 * max(self.samples, 4)


# (two modes, zero temperature): one mode : two modes = 1 : 2
ORACLE_CELLS = tuple((two, zero) for two in (False, True, True) for zero in (True, False))


def oracle_ops(seed: int):
    """One or two modes (1 : 2), zero and finite temperature in equal shares.

    The Fock levels and sample counts, which set the cost, follow a fixed
    design; the seed draws the rest. Two-mode systems carry two thirds of
    the ops so that the median and the upper percentiles of the latency
    fall inside the two-mode costs, not in the gap between the cheap
    one-mode and the dearer two-mode systems. Each mode keeps 5..9 Fock levels with two modes (dimension
    <= 162) and 9..25 with one. At finite temperature ``beta`` is drawn so
    that every mode's thermal weight beyond its cutoff stays between 1e-10
    and 1e-7, inside the oracle's 1e-6 limit. All times lie in the
    short-time window ``t <= 0.1 / omega`` where ``run_oracle_check``
    enforces its thresholds.
    """
    rng = random.Random(f"oracle:{seed}")
    for k in itertools.count():
        j, cell = divmod(k, len(ORACLE_CELLS))
        two, zero = ORACLE_CELLS[cell]
        # The sizes are integers on short ranges, where any seeded draw
        # changes the mix: they follow one fixed design. Every run of five
        # ops in a cell holds each level and sample count once, and 25 ops
        # hold every pair of two-mode levels once.
        first, rest = j % 5, j // 5
        if two:
            levels = [4 + first, 4 + (first + rest) % 5]
        else:
            levels = [8 + 7 * j % 17]
        samples = 4 + (2 * first + rest + cell) % 5
        modes = []
        for n_max in levels:
            omega = _log_uniform(rng.random(), 5e10, 2e11)
            g = (0.05 + 0.1 * rng.random()) * omega * cmath.exp(2j * math.pi * rng.random())
            modes.append((omega, g, n_max))
        beta = None
        if not zero:
            # tail exp(-beta omega (n_max + 1)) between 1e-10 and 1e-7
            floor = min(omega * (n_max + 1) for omega, _, n_max in modes)
            beta = _log_uniform(rng.random(), 7.0, 10.0) * math.log(10.0) / floor
        omega_max = max(omega for omega, _, _ in modes)
        yield OracleOp(
            e_j=_log_uniform(rng.random(), 5e9, 2e10),
            modes=tuple(modes),
            beta=beta,
            t_base=(0.02 + 0.06 * rng.random()) / omega_max,
            samples=samples,
        )


GENERATORS = {"sweep": sweep_ops, "bloch_scan": bloch_ops, "oracle": oracle_ops}

# Op counts that hold every cell equally often (and, for bloch_scan, every
# eighth of the grid range once): lists of a multiple of these lengths
# carry the same cost mix whatever the seed.
BLOCK = {"sweep": len(SWEEP_CELLS), "bloch_scan": 8, "oracle": len(ORACLE_CELLS)}


def take(workload: str, seed: int, count: int) -> list:
    """The first ``count`` ops of a workload's list for ``seed``."""
    ops = GENERATORS[workload](seed)
    return [next(ops) for _ in range(count)]
