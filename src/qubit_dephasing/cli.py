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
import functools
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .bath import _PHASE_LIMIT, OhmicBath, Temperature, g_ohmic_closed, suppression_factor
from .channel import QubitParams, evolve_pair, max_decoherence_analytic
from .entanglement import _checked_alpha, family_concurrence_rows, initial_state
from .errors import (
    ConfigError,
    DephasingError,
    IoError,
    ToleranceNotMet,
)
from .oracle import (
    FockMode,
    OracleSystem,
    _check_ladder,
    channel_discrepancy,
    check_thermal_tail,
    split_deviation,
)
from .qmath import MAX_EXPONENTIAL_DIM

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
# Largest grid or sample count. Every array one sizes takes under 1 KiB per
# entry, so up to this bound a count too large for memory fails numpy's
# allocation with a MemoryError; past it numpy's sizing fails first.
_MAX_COUNT = sys.maxsize // 1024


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
        if self.beta is not None:  # the Matsubara terms of g_ohmic_closed
            if not math.isfinite(self.beta):
                raise ConfigError("beta must be finite")
            bwc = self.beta * self.omega_c
            if not (bwc > 0.0 and math.isfinite(1.0 / bwc)):
                raise ConfigError("1/(beta * omega_c) must be finite")
            if not math.isfinite(self.t_end / self.beta):
                raise ConfigError("t_end / beta must be finite")
        try:
            _checked_alpha(self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.t_start < 0.0:
            raise ConfigError("t_start must be nonnegative")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        # each grid quantity is largest in magnitude at the last point, t_end
        if not math.isfinite(self.e_j1 * self.t_end - self.e_j2 * self.t_end):
            raise ConfigError("e_j1 * t_end - e_j2 * t_end must be finite")
        if not self.omega_c * self.t_end < _PHASE_LIMIT:  # g_ohmic_closed's bound
            raise ConfigError("(omega_c * t_end)**2 must be finite")
        if not math.isfinite(self.t_end / KS_IN_SECONDS):  # the t_ks column
            raise ConfigError("t_end / KS_IN_SECONDS must be finite")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        if self.n_points > _MAX_COUNT:
            raise ConfigError(f"n_points must be at most {_MAX_COUNT}")


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
    t: float = 4e-13
    samples: int = 6
    seed: int = 7
    output_path: str | None = None

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ConfigError("oracle_omega must be positive")
        if self.n_max < 1:
            raise ConfigError("oracle_n_max must be at least 1")
        # the one mode's levels are the bath dimension that OracleSystem caps
        if self.n_max + 1 > MAX_EXPONENTIAL_DIM:
            raise ConfigError(
                f"oracle_n_max = {self.n_max}: bath dimension {self.n_max + 1} "
                f"exceeds cap {MAX_EXPONENTIAL_DIM}"
            )
        if self.beta is not None and not self.beta > 0.0:
            raise ConfigError("oracle_beta must be positive when given")
        if not self.t > 0.0:
            raise ConfigError("oracle_t must be positive")
        if self.samples < 1:
            raise ConfigError("oracle_samples must be at least 1")
        if self.samples > _MAX_COUNT:
            raise ConfigError(f"oracle_samples must be at most {_MAX_COUNT}")
        if self.seed < 0:
            raise ConfigError("oracle_seed must be nonnegative")
        for name in ("e_j", "omega", "g", "t"):  # each key is oracle_ + field
            if not cmath.isfinite(getattr(self, name)):
                raise ConfigError(f"oracle_{name} must be finite")
        try:  # the rules of FockMode, under the keys' names
            _check_ladder(self.omega, complex(self.g), self.n_max, "oracle_")
            if self.beta is not None:
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

def _key_table(cls, prefix: str) -> dict[str, tuple[str, type]]:
    """``{key: (field, cast)}`` of ``cls``; an ``X | None`` field casts as ``X``."""
    hints = get_type_hints(cls)
    return {
        prefix + f.name: (f.name, (get_args(hints[f.name]) or [hints[f.name]])[0])
        for f in fields(cls)
    }


# each field of a config class is a key of the config file; built once, at
# import, so that no command pays for the type-hint pass
_KEYS = {
    ExperimentConfig: _key_table(ExperimentConfig, ""),
    OracleCheckConfig: _key_table(OracleCheckConfig, "oracle_"),
}

KNOWN_KEYS = frozenset().union(*_KEYS.values())


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
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
    return ExperimentConfig(**_cast(mapping, _KEYS[ExperimentConfig]))


def oracle_config_from_mapping(mapping: dict[str, str]) -> OracleCheckConfig:
    return OracleCheckConfig(**_cast(mapping, _KEYS[OracleCheckConfig]))


def serialize_config(cfg: ExperimentConfig | OracleCheckConfig) -> str:
    """Render a config so that parsing it back reproduces ``cfg`` exactly.

    The format has no escaping: a string value (an output path) that is
    empty, holds ``#`` or a line break, or has surrounding whitespace raises
    ``ConfigError``.
    """
    lines = ["# angular frequencies in rad/s, time in seconds"]
    for key, (name, cast) in _KEYS[type(cfg)].items():
        value = getattr(cfg, name)
        if value is None:
            continue  # an omitted key parses back to None
        if cast is str:
            if value != value.strip() or "#" in value or len(value.splitlines()) != 1:
                raise ConfigError(f"{key} {value!r} cannot round-trip a config file")
        else:
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# -- experiment -------------------------------------------------------------

def _g_sweep(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The time grid and the Ohmic exponent ``G`` at each of its points.

    Both qubits see statistically identical baths, so one evaluation per
    time serves both; ``G`` does not depend on ``alpha``. The closed form
    holds at every temperature, zero included.
    """
    ohmic = OhmicBath(cfg.eta, cfg.omega_c)
    times = np.linspace(cfg.t_start, cfg.t_end, cfg.n_points)
    return times, g_ohmic_closed(ohmic, Temperature(cfg.beta), times)


def _timed(times: np.ndarray, *columns) -> list[np.ndarray]:
    """Table columns: ``t_seconds``, ``t_ks``, then ``columns``."""
    return [times, times / KS_IN_SECONDS, *columns]


def _columns(cfg, alphas, times, gs) -> list[list[np.ndarray]]:
    """The ``CSV_HEADER`` columns of the table of each of ``alphas``.

    The reference is ``C(0) * delta1 * delta2``. Each column is one array
    expression over the grid, with the bits of the per-point library calls:
    ``t_ks``, ``delta``, ``s_reference`` and ``d`` from numpy (``t_ks``,
    ``delta`` and ``d`` once for all tables), the concurrence from the
    closed-form X state of the evolved family (one ``family_concurrence_rows``
    pass for all tables, no states formed; Wootters on the ``evolve_pair``
    states validates it in tier-1). The tables are validated whole: if any
    row fails its checks, this raises and returns no table.
    """
    delta, d_max = suppression_factor(gs), max_decoherence_analytic(gs)
    t_ks = times / KS_IN_SECONDS
    params1, params2 = QubitParams(cfg.e_j1), QubitParams(cfg.e_j2)
    rows = family_concurrence_rows(alphas, params1, params2, gs, gs, times)
    c0s = [2.0 * abs(alpha) / (1.0 + abs(alpha) ** 2) for alpha in alphas]
    return [
        [times, t_ks, gs, gs, delta, delta, cs, c0 * delta * delta, d_max, d_max]
        for c0, cs in zip(c0s, rows)
    ]


def run_experiment(cfg: ExperimentConfig) -> list[TimeSeriesRecord]:
    """Sweep the time grid and collect one record per point (see ``_columns``)."""
    (columns,) = _columns(cfg, [cfg.alpha], *_g_sweep(cfg))
    return list(map(TimeSeriesRecord._make, zip(*(c.tolist() for c in columns))))


# -- CSV output -------------------------------------------------------------

def _write_tables(tables):
    """Write each ``(path, header, columns)`` of ``tables`` as CSV, in order.

    A generator: it yields each path once its table is on disk, so a write
    error on one table comes after the paths of the tables before it. Float
    columns, all of one length, go under a pinned header with LF line ends.
    Each bit-distinct column of all the tables is formatted once, in one
    ``celltext.format_cells`` call; the key is a column's bytes, not its
    values, so ``0.0`` and ``-0.0`` stay apart.
    """
    from . import celltext  # deferred: importing the CLI stays cheap

    distinct = {c.tobytes(): c for _, _, columns in tables for c in columns}
    cells = {}
    if distinct:
        text = celltext.format_cells(np.concatenate(list(distinct.values())))
        cells = dict(zip(distinct, text.reshape(len(distinct), -1, 24)))
    for path, header, columns in tables:
        body = b""
        if len(columns):
            table = np.empty((len(columns[0]), len(columns), 25), np.uint8)
            np.stack([cells[c.tobytes()] for c in columns], axis=1, out=table[:, :, :24])
            table[:, :, 24] = ord(",")
            table[:, -1, 24] = ord("\n")
            body = table.tobytes().translate(None, b"\0")
        try:
            with open(path, "wb") as handle:
                handle.write(header.encode() + b"\n" + body)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        yield path


def emit_csv(rows: list[TimeSeriesRecord], path: str) -> None:
    """Write records as CSV under ``CSV_HEADER``."""
    if not rows:
        raise ValueError("rows must be non-empty")
    (_,) = _write_tables([(path, CSV_HEADER, np.array(rows, dtype=float).T)])


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
    times = [cfg.t / 2.0**k for k in range(3)]
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

# the flags whose argparse dest is not the name of the field they set
_FLAG_DESTS = {"t_end": "t_end_ps", "n_points": "points"}


def _configure(args, cls):
    """The ``--config`` file's values with the flags given laid over them.

    Each field takes the flag whose dest is its name, or its ``_FLAG_DESTS``
    entry; ``--t-end-ps`` is in picoseconds. The config is built once, from
    the merged values, so only the values that take effect are validated
    and a flag can replace a bad file value.
    """
    keys = _KEYS[cls]
    values = _cast(load_config(args.config), keys) if args.config else {}
    for name, _ in keys.values():
        flag = getattr(args, _FLAG_DESTS.get(name, name), None)
        if flag is not None:
            values[name] = flag * 1e-12 if name == "t_end" else flag
    return cls(**values)


def _cmd_sweep(args) -> int:
    """``gfactor``, ``evolve`` and ``fig1``: configure, build the tables of
    the subcommand's builder (``args.tables``), then write and report each."""
    cfg = _configure(args, ExperimentConfig)
    for path in _write_tables(args.tables(args, cfg)):
        print(f"wrote {path} ({cfg.n_points} rows)")
    return 0


def _gfactor_tables(args, cfg):
    times, gs = _g_sweep(cfg)
    path = args.out or cfg.output_path or "gfactor.csv"
    return [(path, "t_seconds,t_ks,g,delta", _timed(times, gs, suppression_factor(gs)))]


_BASIS_LABELS = ("00", "01", "10", "11")
_EVOLVE_CSV_HEADER = "t_seconds,t_ks," + ",".join(
    f"{p}_{i}{j}" for i in _BASIS_LABELS for j in _BASIS_LABELS for p in ("re", "im")
)


def _evolve_tables(args, cfg):
    times, gs = _g_sweep(cfg)
    params1, params2 = QubitParams(cfg.e_j1), QubitParams(cfg.e_j2)
    states = evolve_pair(initial_state(cfg.alpha), params1, params2, gs, gs, times)
    # each state's 16 entries as (re, im) pairs, row-major
    entries = states.view(float).reshape(times.size, -1)
    path = args.out or cfg.output_path or "evolve.csv"
    return [(path, _EVOLVE_CSV_HEADER, _timed(times, *entries.T))]


def _fig1_tables(args, cfg):
    if args.alpha is not None:
        paths, alphas = [args.out or cfg.output_path or "fig1_custom.csv"], [cfg.alpha]
    else:
        outdir = args.out or cfg.output_path or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {outdir}: {exc}") from exc
        paths = [os.path.join(outdir, f"fig1_alpha{k}.csv") for k in (1, 2, 3)]
        alphas = [complex(k) for k in (1, 2, 3)]
    # G does not depend on alpha: one sweep serves all; the bundle is
    # validated whole here, before any table is written
    tables = _columns(cfg, alphas, *_g_sweep(cfg))
    return [(path, CSV_HEADER, columns) for path, columns in zip(paths, tables)]


def _cmd_oracle_check(args) -> int:
    cfg = _configure(args, OracleCheckConfig)
    rows, violations = run_oracle_check(cfg)
    path = args.out or cfg.output_path or "oracle_check.csv"
    (path,) = _write_tables([(path, ORACLE_CSV_HEADER, np.array(rows, dtype=float).T)])
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
    # gfactor's table does not depend on alpha: only evolve and fig1 take it
    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument("--alpha", type=_parse_complex, help="initial-state weight")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--eta", type=float, help="dimensionless bath strength")
    grid.add_argument("--omega-c", dest="omega_c", type=float, help="bath cutoff, rad/s")
    grid.add_argument(
        "--t-end-ps", dest="t_end_ps", type=float, help="final time, picoseconds"
    )
    grid.add_argument("--points", type=int, help="number of grid points")

    parser = argparse.ArgumentParser(
        prog="qubit-dephasing",
        description="Short-time dephasing and disentanglement of two qubits "
        "in independent bosonic baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "gfactor", parents=[common, grid], help="tabulate the exponent G and factor delta"
    ).set_defaults(func=_cmd_sweep, tables=_gfactor_tables, alpha=None)
    sub.add_parser(
        "evolve", parents=[common, weight, grid], help="two-qubit state trajectory as CSV"
    ).set_defaults(func=_cmd_sweep, tables=_evolve_tables)
    sub.add_parser(
        "fig1",
        parents=[common, weight, grid],
        help="bundled concurrence experiment (three sweeps)",
    ).set_defaults(func=_cmd_sweep, tables=_fig1_tables)
    oracle = sub.add_parser(
        "oracle-check", parents=[common], help="brute-force channel validation"
    )
    oracle.add_argument("--seed", type=int, help="oracle sampling seed")
    oracle.set_defaults(func=_cmd_oracle_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, so that importing the module stays
    # cheap, and reused after that: parsing leaves the tree unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
    except MemoryError as exc:  # only n_points and oracle_samples size arrays
        print(f"config error: {exc or 'not enough memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
