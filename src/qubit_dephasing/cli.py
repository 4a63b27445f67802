"""Command line front end: configuration, experiment runs, CSV output.

Subcommands expose the library's capabilities: ``gfactor`` tabulates the
decoherence exponent and suppression factor, ``evolve`` emits a two-qubit
state trajectory, ``fig1`` runs the bundled concurrence experiment, and
``oracle-check`` drives the brute-force validation of the channel.

Exit codes: 0 success, 2 configuration error, 3 numerical-tolerance
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .bath import (
    OhmicBath,
    Temperature,
    default_quadrature,
    g_ohmic,
    g_ohmic_closed,
    suppression_factor,
)
from .channel import QubitParams, evolve_pair, max_decoherence_analytic
from .entanglement import concurrence, initial_state
from .errors import (
    ConfigError,
    DephasingError,
    DimensionTooLarge,
    IoError,
    ToleranceNotMet,
)
from .oracle import (
    FockMode,
    OracleSystem,
    channel_discrepancy,
    check_thermal_tail,
    split_deviation,
)

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "KS_IN_SECONDS",
    "OracleCheckConfig",
    "OracleRow",
    "TimeSeriesRecord",
    "config_from_mapping",
    "emit_csv",
    "load_config",
    "main",
    "oracle_config_from_mapping",
    "parse_config_text",
    "run_experiment",
    "run_oracle_check",
    "serialize_config",
]

# Display unit used alongside seconds in the output tables.
KS_IN_SECONDS = 1.51929e-9  # 1 ks = 1519.29 ps

CHANNEL_GAP_LIMIT = 1e-6
RATIO_WINDOW = (6.0, 10.0)
RATIO_FLOOR = 1e-12  # below this the split error is rounding noise


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one time sweep; frequencies in rad/s, time in seconds."""

    eta: float = 1e-5
    omega_c: float = 1e12
    beta: float | None = None  # None means zero temperature
    e_j1: float = 1e10
    e_j2: float = 1e10
    alpha: complex = 1.0 + 0.0j
    t_start: float = 0.0
    t_end: float = 12.15e-12
    n_points: int = 200
    output_path: str | None = None

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ConfigError("eta must be positive")
        if not self.omega_c > 0.0:
            raise ConfigError("omega_c must be positive")
        if self.beta is not None and not self.beta > 0.0:
            raise ConfigError("beta must be positive when given")
        for name in ("eta", "omega_c", "e_j1", "e_j2", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("e_j1", "e_j2"):  # the qubit phase e_j t on the grid
            if not math.isfinite(getattr(self, name) * self.t_end):
                raise ConfigError(f"{name} * t_end must be finite")
        try:
            initial_state(self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.t_start < 0.0:
            raise ConfigError("t_start must be nonnegative")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")


class TimeSeriesRecord(NamedTuple):
    """One row of the experiment output; the fields are the CSV columns."""

    t_seconds: float
    t_ks: float
    g1: float
    g2: float
    delta1: float
    delta2: float
    concurrence: float
    s_reference: float
    d1: float
    d2: float


CSV_HEADER = ",".join(TimeSeriesRecord._fields)


@dataclass(frozen=True)
class OracleCheckConfig:
    """Parameters of the brute-force validation run (one bath mode)."""

    e_j: float = 1e10
    omega: float = 1e11
    g: complex = 1e10 * cmath.exp(1j * math.pi / 7)
    n_max: int = 8
    beta: float | None = None
    t_base: float = 4e-13
    samples: int = 6
    seed: int = 7
    output_path: str | None = None

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ConfigError("oracle_omega must be positive")
        if self.n_max < 1:
            raise ConfigError("oracle_n_max must be at least 1")
        try:
            OracleSystem(self.e_j, (FockMode(self.omega, self.g, self.n_max),))
        except DimensionTooLarge as exc:
            raise ConfigError(f"oracle_n_max = {self.n_max}: {exc}") from None
        if self.beta is not None and not self.beta > 0.0:
            raise ConfigError("oracle_beta must be positive when given")
        if not self.t_base > 0.0:
            raise ConfigError("oracle_t must be positive")
        if self.samples < 1:
            raise ConfigError("oracle_samples must be at least 1")
        if self.seed < 0:
            raise ConfigError("oracle_seed must be nonnegative")
        for key, value in (
            ("oracle_e_j", self.e_j),
            ("oracle_omega", self.omega),
            ("oracle_g", self.g),
            ("oracle_t", self.t_base),
        ):
            if not cmath.isfinite(value):
                raise ConfigError(f"{key} must be finite")
        if self.beta is not None:
            try:
                check_thermal_tail(self.beta, self.omega, self.n_max)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None


class OracleRow(NamedTuple):
    """One row of the oracle-check output; the fields are the CSV columns."""

    t_seconds: float
    split_vs_exact: float
    channel_vs_split: float
    ratio_at_half_t: float


ORACLE_CSV_HEADER = ",".join(OracleRow._fields)


# -- configuration files ----------------------------------------------------

_EXPERIMENT_CASTS = {
    "eta": ("eta", float),
    "omega_c": ("omega_c", float),
    "beta": ("beta", float),
    "e_j1": ("e_j1", float),
    "e_j2": ("e_j2", float),
    "alpha": ("alpha", complex),
    "t_start": ("t_start", float),
    "t_end": ("t_end", float),
    "n_points": ("n_points", int),
    "output_path": ("output_path", str),
}

_ORACLE_CASTS = {
    "oracle_e_j": ("e_j", float),
    "oracle_omega": ("omega", float),
    "oracle_g": ("g", complex),
    "oracle_n_max": ("n_max", int),
    "oracle_beta": ("beta", float),
    "oracle_t": ("t_base", float),
    "oracle_samples": ("samples", int),
    "oracle_seed": ("seed", int),
    "oracle_output_path": ("output_path", str),
}

KNOWN_KEYS = frozenset(_EXPERIMENT_CASTS) | frozenset(_ORACLE_CASTS)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)


def _cast(mapping, casts) -> dict:
    """The values of the keys in ``casts``, cast and named by field."""
    kwargs = {}
    for key, raw in mapping.items():
        if key not in casts:
            continue  # key belongs to another subcommand sharing the file
        attr, cast = casts[key]
        try:
            kwargs[attr] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    return kwargs


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    return ExperimentConfig(**_cast(mapping, _EXPERIMENT_CASTS))


def oracle_config_from_mapping(mapping: dict[str, str]) -> OracleCheckConfig:
    return OracleCheckConfig(**_cast(mapping, _ORACLE_CASTS))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config so that parsing it back reproduces ``cfg`` exactly."""
    lines = ["# angular frequencies in rad/s, time in seconds"]
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if value is not None:  # an omitted key parses back to None
            text = value if field.name == "output_path" else repr(value)
            lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"


# -- experiment -------------------------------------------------------------

def _g_sweep(cfg: ExperimentConfig) -> tuple[list[float], list[float]]:
    """The time grid and the Ohmic exponent ``G`` at each of its points.

    Both qubits see statistically identical baths, so one evaluation per
    time serves both; ``G`` does not depend on ``alpha``.
    """
    ohmic = OhmicBath(cfg.eta, cfg.omega_c)
    temp = Temperature(cfg.beta)
    times = np.linspace(cfg.t_start, cfg.t_end, cfg.n_points).tolist()
    if cfg.beta is not None:
        return times, g_ohmic_closed(ohmic, temp, times).tolist()
    # zero T stays on the quadrature until bench/selftest.py stops asserting
    # that its long horizons fail there (ROADMAP item 1a)
    quad = default_quadrature()
    return times, [g_ohmic(ohmic, temp, t, quad) for t in times]


def _evolved_states(cfg: ExperimentConfig, times, gs) -> np.ndarray:
    """``(n, 4, 4)``: the pair state evolved from ``initial_state(cfg.alpha)``."""
    params1, params2 = QubitParams(cfg.e_j1), QubitParams(cfg.e_j2)
    return evolve_pair(initial_state(cfg.alpha), params1, params2, gs, gs, times)


def _records(cfg: ExperimentConfig, times, gs) -> list[TimeSeriesRecord]:
    """One record per grid point; the reference is ``C(0) * delta1 * delta2``."""
    c0 = 2.0 * abs(cfg.alpha) / (1.0 + abs(cfg.alpha) ** 2)
    cs = concurrence(_evolved_states(cfg, times, gs))
    records = []
    for t, g, c_t in zip(times, gs, cs.tolist()):
        delta = suppression_factor(g)
        d_max = max_decoherence_analytic(g)
        records.append(
            TimeSeriesRecord(
                t_seconds=t,
                t_ks=t / KS_IN_SECONDS,
                g1=g,
                g2=g,
                delta1=delta,
                delta2=delta,
                concurrence=c_t,
                s_reference=c0 * delta * delta,
                d1=d_max,
                d2=d_max,
            )
        )
    return records


def run_experiment(cfg: ExperimentConfig) -> list[TimeSeriesRecord]:
    """Sweep the time grid and collect one record per point."""
    return _records(cfg, *_g_sweep(cfg))


def _write_table(path: str, header: str, rows) -> None:
    """Write a CSV table: pinned header, 17-significant-digit floats, LF."""
    lines = [header] + [",".join(f"{v:.16e}" for v in row) for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_csv(rows: list[TimeSeriesRecord], path: str) -> None:
    """Write records as CSV under ``CSV_HEADER``."""
    if not rows:
        raise ValueError("rows must be non-empty")
    _write_table(path, CSV_HEADER, rows)


# -- oracle check -----------------------------------------------------------

def run_oracle_check(cfg: OracleCheckConfig) -> tuple[list[OracleRow], list[str]]:
    """Drive the brute-force propagators over a halving time grid.

    Returns the rows plus a list of threshold violations. Thresholds are
    enforced only in the short-time regime: for ``t <= 0.1 / omega`` the
    channel-vs-split gap must stay below 1e-6, and for ``t <= 0.1 /
    max(omega, |e_j|)`` the split-vs-exact deviation must shrink 6x to 10x
    under each halving. That window rests on the split error's third-order
    leading term, which needs ``|e_j| t`` small as well; with ``|e_j| t >>
    1`` the halving ratio tends to 4 however well the channel holds.
    """
    system = OracleSystem(cfg.e_j, (FockMode(cfg.omega, cfg.g, cfg.n_max),))
    temp = Temperature(cfg.beta)
    times = [cfg.t_base / 2.0**k for k in range(3)]
    deviations = {}
    for t in times + [times[-1] / 2.0]:
        deviations[t] = split_deviation(system, temp, t, cfg.samples, cfg.seed)
    rows, violations = [], []
    short_time = 0.1 / cfg.omega
    third_order = 0.1 / max(cfg.omega, abs(cfg.e_j))
    lo, hi = RATIO_WINDOW
    for t in times:
        dev = deviations[t]
        half_dev = deviations[t / 2.0]
        ratio = dev / half_dev if half_dev > 0.0 else float("nan")
        gap = channel_discrepancy(system, temp, t, max(cfg.samples, 4), cfg.seed)
        rows.append(OracleRow(t, dev, gap, ratio))
        if t <= short_time and gap > CHANNEL_GAP_LIMIT:
            violations.append(
                f"channel_vs_split {gap:.3e} exceeds {CHANNEL_GAP_LIMIT:.0e} "
                f"at t = {t:.3e} s"
            )
        if t <= third_order and dev > RATIO_FLOOR and not lo <= ratio <= hi:
            violations.append(
                f"halving ratio {ratio:.2f} outside [{lo:g}, {hi:g}] "
                f"at t = {t:.3e} s"
            )
    return rows, violations


# -- subcommands ------------------------------------------------------------

def _configure(args, factory, casts, **flags):
    """The ``--config`` file's values with the flags given laid over them.

    The config is built once, from the merged values, so only the values
    that take effect are validated and a flag can replace a bad file value.
    """
    values = _cast(load_config(args.config), casts) if args.config else {}
    values.update((k, v) for k, v in flags.items() if v is not None)
    return factory(**values)


def _experiment_config(args) -> ExperimentConfig:
    return _configure(
        args,
        ExperimentConfig,
        _EXPERIMENT_CASTS,
        alpha=args.alpha,
        eta=args.eta,
        omega_c=args.omega_c,
        beta=args.beta,
        t_end=None if args.t_end_ps is None else args.t_end_ps * 1e-12,
        n_points=args.points,
    )


def _cmd_gfactor(args) -> int:
    cfg = _experiment_config(args)
    times, gs = _g_sweep(cfg)
    path = args.out or cfg.output_path or "gfactor.csv"
    _write_table(
        path,
        "t_seconds,t_ks,g,delta",
        [(t, t / KS_IN_SECONDS, g, suppression_factor(g)) for t, g in zip(times, gs)],
    )
    print(f"wrote {path} ({cfg.n_points} rows)")
    return 0


_BASIS_LABELS = ("00", "01", "10", "11")
_EVOLVE_CSV_HEADER = "t_seconds,t_ks," + ",".join(
    f"{p}_{i}{j}" for i in _BASIS_LABELS for j in _BASIS_LABELS for p in ("re", "im")
)


def _cmd_evolve(args) -> int:
    cfg = _experiment_config(args)
    times, gs = _g_sweep(cfg)
    # each state's 16 entries as (re, im) pairs, row-major
    entries = _evolved_states(cfg, times, gs).view(float).reshape(len(times), -1)
    rows = [[t, t / KS_IN_SECONDS, *row] for t, row in zip(times, entries.tolist())]
    path = args.out or cfg.output_path or "evolve.csv"
    _write_table(path, _EVOLVE_CSV_HEADER, rows)
    print(f"wrote {path} ({cfg.n_points} rows)")
    return 0


def _cmd_fig1(args) -> int:
    cfg = _experiment_config(args)
    if args.alpha is not None:
        tables = [(args.out or cfg.output_path or "fig1_custom.csv", cfg)]
    else:
        outdir = args.out or cfg.output_path or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {outdir}: {exc}") from exc
        tables = [
            (os.path.join(outdir, f"fig1_alpha{k}.csv"), replace(cfg, alpha=complex(k)))
            for k in (1, 2, 3)
        ]
    times, gs = _g_sweep(cfg)  # G does not depend on alpha: one sweep serves all
    for path, table_cfg in tables:
        emit_csv(_records(table_cfg, times, gs), path)
        print(f"wrote {path} ({cfg.n_points} rows)")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _configure(
        args, OracleCheckConfig, _ORACLE_CASTS, beta=args.beta, seed=args.seed
    )
    rows, violations = run_oracle_check(cfg)
    path = args.out or cfg.output_path or "oracle_check.csv"
    _write_table(path, ORACLE_CSV_HEADER, rows)
    label = "zero" if cfg.beta is None else f"beta = {cfg.beta:g} s"
    print(
        f"system: e_j = {cfg.e_j:.3e} rad/s, mode omega = {cfg.omega:.3e} rad/s, "
        f"|g| = {abs(cfg.g):.3e} rad/s, n_max = {cfg.n_max}, temperature {label}"
    )
    for row in rows:
        print(
            f"t = {row.t_seconds:.3e} s: split_vs_exact = {row.split_vs_exact:.3e}, "
            f"channel_vs_split = {row.channel_vs_split:.3e}, "
            f"ratio_at_half_t = {row.ratio_at_half_t:.2f}"
        )
    print(f"wrote {path} ({len(rows)} rows)")
    if violations:
        for item in violations:
            print(f"violation: {item}")
        raise ToleranceNotMet("; ".join(violations))
    if abs(cfg.e_j) > cfg.omega:  # the ratio window is the narrower one
        print(
            "all thresholds met: channel gap for t <= 0.1/omega, "
            "halving ratio for t <= 0.1/|e_j|"
        )
    else:
        print("all thresholds met for t <= 0.1/omega")
    return 0


def _parse_complex(raw: str) -> complex:
    try:
        return complex(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex number {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--out", metavar="PATH", help="output file (directory for fig1)")
    common.add_argument(
        "--beta", type=float, help="inverse temperature, seconds; omit for zero"
    )
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument(
        "--alpha",
        type=_parse_complex,
        help="initial-state weight (gfactor validates it but does not use it)",
    )
    sweep.add_argument("--eta", type=float, help="dimensionless bath strength")
    sweep.add_argument("--omega-c", dest="omega_c", type=float, help="bath cutoff, rad/s")
    sweep.add_argument(
        "--t-end-ps", dest="t_end_ps", type=float, help="final time, picoseconds"
    )
    sweep.add_argument("--points", type=int, help="number of grid points")

    parser = argparse.ArgumentParser(
        prog="qubit-dephasing",
        description="Short-time dephasing and disentanglement of two qubits "
        "in independent bosonic baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "gfactor", parents=[sweep], help="tabulate the exponent G and factor delta"
    ).set_defaults(func=_cmd_gfactor)
    sub.add_parser(
        "evolve", parents=[sweep], help="two-qubit state trajectory as CSV"
    ).set_defaults(func=_cmd_evolve)
    sub.add_parser(
        "fig1", parents=[sweep], help="bundled concurrence experiment (three sweeps)"
    ).set_defaults(func=_cmd_fig1)
    oracle = sub.add_parser(
        "oracle-check", parents=[common], help="brute-force channel validation"
    )
    oracle.add_argument("--seed", type=int, help="oracle sampling seed")
    oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except DephasingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
