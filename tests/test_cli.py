import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qubit_dephasing
import qubit_dephasing.celltext as celltext
import qubit_dephasing.cli as cli_module
import qubit_dephasing.entanglement as entanglement_module
from qubit_dephasing.bath import (
    OhmicBath,
    Temperature,
    g_ohmic_closed,
    suppression_factor,
)
from qubit_dephasing.channel import QubitParams, evolve_pair, max_decoherence_analytic
from qubit_dephasing.cli import (
    CSV_HEADER,
    KS_IN_SECONDS,
    ExperimentConfig,
    OracleCheckConfig,
    config_from_mapping,
    emit_csv,
    load_config,
    main,
    oracle_config_from_mapping,
    parse_config_text,
    run_experiment,
    run_oracle_check,
    serialize_config,
)
from qubit_dephasing.entanglement import concurrence, family_concurrence, initial_state
from qubit_dephasing.errors import ConfigError, InvalidState

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")

SAMPLE_CONFIG = """
# sweep setup
eta = 2e-5
omega_c = 5e11   # angular cutoff
alpha = 2+0j
beta = 1e-12
n_points = 16
t_end = 6e-12
"""


def read_rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines[0], np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    )


def test_parse_config_text():
    mapping = parse_config_text(SAMPLE_CONFIG)
    cfg = config_from_mapping(mapping)
    assert cfg.eta == 2e-5
    assert cfg.omega_c == 5e11
    assert cfg.alpha == 2 + 0j
    assert cfg.beta == 1e-12
    assert cfg.n_points == 16
    assert cfg.t_end == 6e-12
    assert cfg.e_j1 == 1e10  # untouched default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("bogus = 1\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config_text("eta = 1e-5\neta = 2e-5\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config_text("eta\n")
    with pytest.raises(ConfigError):
        parse_config_text("eta =\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        config_from_mapping({"eta": "fast"})
    with pytest.raises(ConfigError):
        config_from_mapping({"eta": "-1e-5"})
    with pytest.raises(ConfigError):
        config_from_mapping({"n_points": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"beta": "0"})
    with pytest.raises(ConfigError, match="^omega_c must be positive$"):
        config_from_mapping({"omega_c": "0"})
    with pytest.raises(ConfigError, match="^t_start must be nonnegative$"):
        config_from_mapping({"t_start": "-1e-12"})


@pytest.mark.parametrize(
    "key,value",
    [
        ("eta", "inf"),
        ("omega_c", "inf"),
        ("t_start", "nan"),
        ("t_end", "inf"),
        ("t_end", "1e300"),  # e_j t_end overflows at the default e_j = 1e10
        ("alpha", "nan+0j"),
        ("alpha", "1e200"),
        ("beta", "inf"),
        ("beta", "5e-324"),  # 1/(beta omega_c) and t_end / beta overflow
    ],
)
def test_config_rejects_non_finite_or_overflowing_values(key, value):
    with pytest.raises(ConfigError):
        config_from_mapping({key: value})


def test_config_round_trip_is_lossless():
    cfg = ExperimentConfig(
        eta=3e-5,
        omega_c=7.5e11,
        beta=2e-12,
        e_j1=9e9,
        e_j2=1.1e10,
        alpha=0.5 + 0.25j,
        t_start=1e-13,
        t_end=1.1e-11,
        n_points=37,
        output_path="sweep.csv",
    )
    assert config_from_mapping(parse_config_text(serialize_config(cfg))) == cfg


def test_config_round_trip_without_optionals():
    cfg = ExperimentConfig()
    again = config_from_mapping(parse_config_text(serialize_config(cfg)))
    assert again == cfg
    assert again.beta is None


@pytest.mark.parametrize(
    "path",
    ["runs#1.csv", " a.csv", "a.csv ", "", "a\nb", "a\rb"],
    ids=["hash", "leading_space", "trailing_space", "empty", "newline", "return"],
)
def test_serialize_config_rejects_a_path_the_format_cannot_hold(path):
    # the format has no escaping: each would read back as another value, or fail
    with pytest.raises(ConfigError, match="^output_path "):
        serialize_config(ExperimentConfig(output_path=path))
    with pytest.raises(ConfigError, match="^oracle_output_path "):
        serialize_config(OracleCheckConfig(output_path=path))


def test_config_round_trip_keeps_inner_spaces_and_equals_signs():
    cfg = ExperimentConfig(output_path="my runs/a=b.csv")
    assert config_from_mapping(parse_config_text(serialize_config(cfg))) == cfg


def test_oracle_config_from_shared_file():
    text = "eta = 1e-5\noracle_n_max = 6\noracle_seed = 11\n"
    ocfg = oracle_config_from_mapping(parse_config_text(text))
    assert ocfg.n_max == 6
    assert ocfg.seed == 11
    assert ocfg.e_j == 1e10  # default untouched by experiment keys


def test_config_keys_are_pinned():
    # the keys are the config fields' names: renaming a field must not
    # silently rename a key that existing config files use
    assert cli_module.KNOWN_KEYS == {
        "eta",
        "omega_c",
        "beta",
        "e_j1",
        "e_j2",
        "alpha",
        "t_start",
        "t_end",
        "n_points",
        "output_path",
        "oracle_e_j",
        "oracle_omega",
        "oracle_g",
        "oracle_n_max",
        "oracle_beta",
        "oracle_t",
        "oracle_samples",
        "oracle_seed",
        "oracle_output_path",
    }


# an output path the format can hold: one line, no "#", no surrounding space
ROUND_TRIP_PATHS = st.none() | st.text(min_size=1).filter(
    lambda s: s == s.strip() and "#" not in s and len(s.splitlines()) == 1
)


@st.composite
def valid_config(draw, cls, **strategies):
    """A ``cls`` built from drawn field values; draws it rejects are discarded."""
    values = {name: draw(strategy) for name, strategy in strategies.items()}
    try:
        return cls(**values)
    except ConfigError:
        assume(False)


EXPERIMENT_CONFIGS = valid_config(
    ExperimentConfig,
    eta=st.floats(1e-300, 1e300),
    omega_c=st.floats(1e-150, 1e150),
    beta=st.none() | st.floats(1e-150, 1e150),
    e_j1=st.floats(-1e15, 1e15),
    e_j2=st.floats(-1e15, 1e15),
    alpha=st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
    t_start=st.floats(0.0, 1e-6),
    t_end=st.floats(1e-6, 1.0),
    n_points=st.integers(2, 2**62),
    output_path=ROUND_TRIP_PATHS,
)

ORACLE_CONFIGS = valid_config(
    OracleCheckConfig,
    e_j=st.floats(-1e300, 1e300),
    omega=st.floats(1e-300, 1e300),
    g=st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    n_max=st.integers(1, 1023),
    beta=st.none() | st.floats(1e-300, 1e300),
    t=st.floats(1e-300, 1e300),
    samples=st.integers(1, 2**62),
    seed=st.integers(0, 2**62),
    output_path=ROUND_TRIP_PATHS,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(EXPERIMENT_CONFIGS, ORACLE_CONFIGS)
def test_both_configs_round_trip_alone_and_in_one_file(cfg, ocfg):
    assert config_from_mapping(parse_config_text(serialize_config(cfg))) == cfg
    assert oracle_config_from_mapping(parse_config_text(serialize_config(ocfg))) == ocfg
    shared = parse_config_text(serialize_config(cfg) + serialize_config(ocfg))
    assert config_from_mapping(shared) == cfg
    assert oracle_config_from_mapping(shared) == ocfg


def test_run_experiment_first_row_is_pristine():
    cfg = ExperimentConfig(n_points=4, t_end=2e-12, alpha=2.0 + 0j)
    rows = run_experiment(cfg)
    assert len(rows) == 4
    first = rows[0]
    assert first.t_seconds == 0.0
    assert first.g1 == 0.0 and first.g2 == 0.0
    assert first.delta1 == 1.0 and first.delta2 == 1.0
    assert first.d1 == 0.0
    assert first.concurrence == pytest.approx(0.8, abs=1e-10)
    assert first.s_reference == pytest.approx(0.8, abs=1e-12)


def test_run_experiment_matches_reference_for_maximal_entanglement():
    cfg = ExperimentConfig(n_points=12, alpha=1.0 + 0j)
    for row in run_experiment(cfg):
        assert row.concurrence == pytest.approx(row.s_reference, abs=1e-10)
        assert row.g1 == row.g2
        assert row.delta1 == pytest.approx(math.exp(-4.0 * row.g1), rel=1e-14)


def test_run_experiment_strict_gap_for_partial_entanglement():
    # alpha != 1: the dephased concurrence falls strictly below the
    # product reference, by (1 - delta1 delta2) * (1/2 - ab)
    cfg = ExperimentConfig(n_points=10, alpha=2.0 + 0j)
    rows = run_experiment(cfg)
    a_w = 1.0 / math.sqrt(5.0)
    b_w = 2.0 / math.sqrt(5.0)
    for row in rows[1:]:
        dd = row.delta1 * row.delta2
        closed = max(0.0, (1.0 + dd) * a_w * b_w - 0.5 * (1.0 - dd))
        assert row.concurrence == pytest.approx(closed, abs=1e-10)
        assert row.concurrence < row.s_reference


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def sweep_configs(beta):
    """Configs over the full ranges of each parameter, at temperature ``beta``."""
    return st.builds(
        ExperimentConfig,
        eta=log_uniform(1e-8, 1.0),
        omega_c=log_uniform(1e9, 1e15),
        beta=beta,
        e_j1=log_uniform(1e6, 1e13),
        e_j2=log_uniform(1e6, 1e13),
        alpha=st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
        t_end=log_uniform(1e-14, 1e-8),
        n_points=st.just(20),
    )


def checked_g(cfg):
    """Run ``cfg``, check that its rows are finite and that ``G`` is the same
    on both qubits and nondecreasing; return ``G`` and the zero-temperature
    exponent on the same grid."""
    rows = np.array(run_experiment(cfg))
    assert np.all(np.isfinite(rows))
    t, g = rows[:, 0], rows[:, 2]
    assert np.array_equal(g, rows[:, 3])
    assert np.all(np.diff(g) >= 0.0)
    return g, 0.5 * cfg.eta * np.log1p((cfg.omega_c * t) ** 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sweep_configs(log_uniform(1e-15, 1e-9)))
def test_every_finite_temperature_config_runs(cfg):
    g, zero_t = checked_g(cfg)
    assert np.all(g >= zero_t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sweep_configs(st.none()))
def test_every_zero_temperature_config_runs(cfg):
    g, zero_t = checked_g(cfg)
    assert np.array_equal(g, zero_t)


def test_emit_csv_layout_and_determinism(tmp_path):
    cfg = ExperimentConfig(n_points=5, t_end=3e-12)
    rows = run_experiment(cfg)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(rows, str(first))
    emit_csv(run_experiment(cfg), str(second))
    assert first.read_bytes() == second.read_bytes()

    raw = first.read_bytes()
    assert raw.startswith(CSV_HEADER.encode("utf-8") + b"\n")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")

    header, data = read_rows(str(first))
    assert header == CSV_HEADER
    assert data.shape == (5, 10)
    for line in raw.decode("utf-8").splitlines()[1:]:
        for cell in line.split(","):
            assert FLOAT_CELL.match(cell), cell
    np.testing.assert_allclose(data[:, 1], data[:, 0] / KS_IN_SECONDS, rtol=1e-15)
    np.testing.assert_allclose(data[-1, 0], 3e-12, rtol=1e-15)


def test_csv_headers_are_the_pinned_schemas():
    assert CSV_HEADER == "t_seconds,t_ks,g1,g2,delta1,delta2,concurrence,s_reference,d1,d2"
    assert (
        cli_module.ORACLE_CSV_HEADER
        == "t_seconds,split_vs_exact,channel_vs_split,ratio_at_half_t"
    )


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([], "unused.csv")


def test_run_oracle_check_default_passes():
    rows, violations = run_oracle_check(OracleCheckConfig(samples=4))
    assert violations == []
    assert len(rows) == 3
    assert rows[0].t_seconds == 4e-13
    for row in rows:
        assert row.channel_vs_split < 1e-6
        assert 6.0 <= row.ratio_at_half_t <= 10.0


def test_run_oracle_check_flags_oversized_coupling():
    # coupling far outside the truncation budget: the channel no longer
    # matches the brute-force propagator inside the short-time window
    cfg = OracleCheckConfig(g=2e12 + 0j, samples=4)
    _, violations = run_oracle_check(cfg)
    assert violations


def test_main_gfactor_and_exit_zero(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gfactor", "--points", "6", "--out", str(out)]) == 0
    header, data = read_rows(str(out))
    assert header == "t_seconds,t_ks,g,delta"
    assert data.shape == (6, 4)
    np.testing.assert_allclose(data[:, 3], np.exp(-4.0 * data[:, 2]), rtol=1e-12)


def test_main_evolve_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--points", "4", "--out", str(out)]) == 0
    header, data = read_rows(str(out))
    cols = header.split(",")
    assert cols[:2] == ["t_seconds", "t_ks"]
    assert len(cols) == 2 + 32  # re/im for all 16 entries
    assert data.shape == (4, 34)
    # trace of the reshaped state stays one
    re_cells = data[:, 2::2]
    traces = re_cells[:, 0] + re_cells[:, 5] + re_cells[:, 10] + re_cells[:, 15]
    np.testing.assert_allclose(traces, 1.0, atol=1e-12)


def test_main_fig1_bundle(tmp_path):
    assert main(["fig1", "--points", "10", "--out", str(tmp_path)]) == 0
    gaps = {}
    for idx in (1, 2, 3):
        header, data = read_rows(str(tmp_path / f"fig1_alpha{idx}.csv"))
        assert header == CSV_HEADER
        assert data.shape == (10, 10)
        c, s = data[:, 6], data[:, 7]
        assert np.all(c <= s + 1e-12)
        assert np.all(np.diff(c) < 0.0)  # strictly decaying
        gaps[idx] = s[1:] - c[1:]
    assert np.max(np.abs(gaps[1])) <= 1e-10  # equality only for alpha = 1
    assert np.min(gaps[2]) > 1e-12
    assert np.min(gaps[3]) > 1e-12


def test_main_fig1_single_alpha(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["fig1", "--points", "5", "--alpha", "3", "--out", str(out)]) == 0
    header, data = read_rows(str(out))
    assert header == CSV_HEADER
    assert data[0, 6] == pytest.approx(0.6, abs=1e-10)


def test_main_config_file_flow(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(SAMPLE_CONFIG, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = main(["fig1", "--config", str(conf), "--out", str(out), "--alpha", "2+0j"])
    assert code == 0
    _, data = read_rows(str(out))
    assert data.shape == (16, 10)
    np.testing.assert_allclose(data[-1, 0], 6e-12, rtol=1e-15)


def test_main_exit_two_on_config_errors(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["gfactor", "--config", str(conf)]) == 2
    assert main(["gfactor", "--points", "1"]) == 2
    assert main(["gfactor", "--beta", "-1"]) == 2


@pytest.mark.parametrize(
    "text,flags,rows,message",
    [
        ("n_points = 1\n", ["--points", "5"], 5, "n_points must be at least 2"),
        (
            "e_j1 = 1e300\nt_end = 1e10\n",
            ["--t-end-ps", "5", "--points", "3"],
            3,
            "e_j1 * t_end must be finite",
        ),
    ],
    ids=["n_points", "e_j1-t_end"],
)
def test_flags_override_an_invalid_config_file_value(
    tmp_path, capsys, text, flags, rows, message
):
    # the file and the flags are merged first; only the merged config is validated
    conf = tmp_path / "run.conf"
    conf.write_text(text, encoding="utf-8")
    out = tmp_path / "g.csv"
    argv = ["gfactor", "--config", str(conf), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
    assert main(argv + flags) == 0
    _, data = read_rows(str(out))
    assert data.shape == (rows, 4)


# flag: (config key, file value, flag value, field value the flag gives)
SWEEP_FLAGS = {
    "--eta": ("eta", "2e-5", "3e-5", 3e-5),
    "--omega-c": ("omega_c", "5e11", "7e11", 7e11),
    "--beta": ("beta", "1e-12", "2e-12", 2e-12),
    "--t-end-ps": ("t_end", "6e-12", "4", 4.0 * 1e-12),
    "--points": ("n_points", "16", "9", 9),
    "--alpha": ("alpha", "2+0j", "3+1j", 3 + 1j),
}
ORACLE_FLAGS = {
    "--beta": ("oracle_beta", "1e-10", "5e-11", 5e-11),
    "--seed": ("oracle_seed", "11", "12", 12),
}


class Configured(Exception):
    """Raised in place of a command's run, once it has built its config."""


@pytest.mark.parametrize(
    "command, flag",
    [("gfactor", flag) for flag in SWEEP_FLAGS if flag != "--alpha"]
    + [(command, flag) for command in ("evolve", "fig1") for flag in SWEEP_FLAGS]
    + [("oracle-check", flag) for flag in ORACLE_FLAGS],
)
def test_each_flag_overrides_its_config_key(tmp_path, monkeypatch, command, flag):
    if command == "oracle-check":
        flags, from_mapping, run = ORACLE_FLAGS, oracle_config_from_mapping, "run_oracle_check"
    else:
        flags, from_mapping, run = SWEEP_FLAGS, config_from_mapping, "_g_sweep"
    key, file_value, flag_value, field_value = flags[flag]
    built = []

    def spy(cfg):
        built.append(cfg)
        raise Configured

    monkeypatch.setattr(cli_module, run, spy)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {file_value}\n", encoding="utf-8")
    argv = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    for extra in ([], [flag, flag_value]):
        with pytest.raises(Configured):
            main(argv + extra)
    from_file, from_flag = built
    assert from_file == from_mapping({key: file_value})
    field = key.removeprefix("oracle_")
    assert getattr(from_file, field) != field_value
    assert from_flag == dataclasses.replace(from_file, **{field: field_value})


@pytest.mark.parametrize(
    "argv, text",
    [
        (["gfactor", "--points", "1000000000000000"], ""),
        (["oracle-check"], "oracle_samples = 1000000000000000\n"),
        (["gfactor", "--points", str(2**60)], ""),
        (["gfactor", "--points", str(2**63 - 1)], ""),
        (["oracle-check"], "oracle_samples = 1000000000000000000\n"),
    ],
    ids=["points", "oracle_samples", "points_2_60", "points_max", "oracle_samples_1e18"],
)
def test_main_exit_two_on_a_config_too_large_for_memory(tmp_path, capsys, argv, text):
    # the arrays of 10**15 rows these size lie beyond a 64-bit process's
    # address space, so the allocation fails at once and takes no memory;
    # a count past sys.maxsize // 1024, where numpy's sizing would fail
    # before allocating, is rejected by name first
    conf = tmp_path / "big.conf"
    conf.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text, named",
    [
        # a config file that is not UTF-8
        (["gfactor"], b"eta = 1e-5 # \xff\n", "is not UTF-8 text"),
        (["oracle-check"], b"oracle_t = 1e-13\xe9\n", "is not UTF-8 text"),
        # grids the rules used to admit, on which the sweep failed or warned
        (["fig1"], b"e_j1 = 1e308\ne_j2 = -1e308\nt_end = 1\n", "e_j1 * t_end - e_j2"),
        (["evolve"], b"e_j1 = 1e308\ne_j2 = -1e308\nt_end = 1\n", "e_j1 * t_end - e_j2"),
        (
            ["gfactor"],
            b"omega_c = 1e-200\ne_j1 = 1e-10\ne_j2 = 1e-10\nt_end = 1e300\n",
            "t_end / KS_IN_SECONDS",
        ),
    ],
    ids=["sweep_not_utf8", "oracle_not_utf8", "fig1_phase_gap", "evolve_phase_gap", "t_ks"],
)
def test_main_exit_two_on_input_it_cannot_take(tmp_path, capsys, argv, text, named):
    conf = tmp_path / "run.conf"
    conf.write_bytes(text)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ") and named in line
    assert not out.exists()


def test_main_exit_three_on_tolerance_failure(tmp_path):
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_g = 2e12+0j\noracle_samples = 4\n", encoding="utf-8")
    out = tmp_path / "oc.csv"
    assert main(["oracle-check", "--config", str(conf), "--out", str(out)]) == 3
    assert out.exists()  # rows are still written for inspection


def test_main_exit_four_on_io_failure(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir"
    assert main(["gfactor", "--points", "4", "--out", str(missing_dir / "x.csv")]) == 4
    assert main(["gfactor", "--config", str(tmp_path / "absent.conf")]) == 4
    # fig1's output directory cannot be made under a regular file
    regular = tmp_path / "regular"
    regular.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["fig1", "--points", "4", "--out", str(regular / "bundle")]) == 4
    assert capsys.readouterr().err.startswith(f"io error: cannot create {regular / 'bundle'}: ")


def test_main_oracle_check_happy_path(tmp_path, capsys):
    out = tmp_path / "oc.csv"
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_samples = 4\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(conf), "--out", str(out)]) == 0
    header, data = read_rows(str(out))
    assert header == "t_seconds,split_vs_exact,channel_vs_split,ratio_at_half_t"
    assert data.shape == (3, 4)
    assert np.all(data[:, 3] > 6.0) and np.all(data[:, 3] < 10.0)
    # e_j <= omega: both thresholds share one window
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "all thresholds met for t <= 0.1/omega"


def test_oracle_check_gates_the_halving_ratio_on_the_qubit_frequency_too(
    tmp_path, capsys
):
    # E_J t >> 1: the split error's leading order is no longer t^3, so the
    # ratios sit near 4 while the channel still matches to rounding. Only
    # the channel gap is checked here (t <= 0.1/omega at the two smaller
    # times); the ratio window needs t <= 0.1/max(omega, E_J) as well
    conf = tmp_path / "oracle.conf"
    conf.write_text(
        "oracle_e_j = 2e12\noracle_omega = 1.6e9\noracle_g = 7e6\n"
        "oracle_n_max = 17\noracle_t = 6.7e-11\n",
        encoding="utf-8",
    )
    out = tmp_path / "oc.csv"
    assert main(["oracle-check", "--config", str(conf), "--out", str(out)]) == 0
    _, data = read_rows(str(out))
    assert data.shape == (3, 4)
    assert np.all(data[:, 2] < 1e-6)
    assert np.all(np.abs(data[:, 3] - 4.0) < 0.1)
    # the closing line names both windows, since they differ here
    assert capsys.readouterr().out.splitlines()[-1] == (
        "all thresholds met: channel gap for t <= 0.1/omega, "
        "halving ratio for t <= 0.1/|e_j|"
    )


@pytest.mark.parametrize("n_max, code", [(1, 3), (2, 0)])
def test_oracle_check_strong_coupling_needs_more_than_two_levels(
    tmp_path, capsys, n_max, code
):
    # |g|/omega = 0.58: the displaced vacuum does not fit in two levels, so
    # channel_vs_split at t = 1e-12 s is 7.2e-6 at n_max = 1 (a truncation
    # gap, not a channel fault) and 9.7e-9 at n_max = 2
    conf = tmp_path / "oracle.conf"
    conf.write_text(
        "oracle_omega = 1e11\noracle_g = 5.8e10\noracle_t = 1e-12\n"
        f"oracle_n_max = {n_max}\n",
        encoding="utf-8",
    )
    argv = ["oracle-check", "--config", str(conf), "--out", str(tmp_path / "oc.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("channel_vs_split" in err) == (code == 3)


@st.composite
def oracle_config_lines(draw):
    """An ``oracle-check`` config over the full ranges: ``omega``, ``|g|/omega``,
    ``n_max``, ``E_J/omega`` of either sign, ``t omega``, and ``beta omega``
    for about half the draws (zero temperature for the rest)."""
    omega = draw(log_uniform(1e8, 1e14))
    g = draw(log_uniform(1e-3, 1.0)) * omega
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    lines = {
        "oracle_omega": omega,
        "oracle_g": complex(g * math.cos(phase), g * math.sin(phase)),
        "oracle_n_max": draw(st.integers(1, 39)),
        "oracle_e_j": draw(st.sampled_from([1.0, -1.0])) * draw(log_uniform(1e-3, 10.0)) * omega,
        "oracle_t": draw(log_uniform(0.01, 10.0)) / omega,
    }
    if draw(st.booleans()):
        lines["oracle_beta"] = draw(log_uniform(0.1, 100.0)) / omega
    return "".join(f"{key} = {value!r}\n" for key, value in lines.items()), lines


@settings(derandomize=True, max_examples=150, deadline=None)
@given(oracle_config_lines())
def test_every_oracle_check_config_runs_or_is_rejected_by_name(drawn):
    # accepted: exit 0 and finite rows; rejected: exit 2 with a config error;
    # exit 3 only for the documented two-level truncation under strong coupling
    text, values = drawn
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = os.path.join(tmp, "oracle.conf"), os.path.join(tmp, "oc.csv")
        with open(conf, "w", encoding="utf-8") as handle:
            handle.write(text)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["oracle-check", "--config", conf, "--out", out])
        if code == 0:
            _, data = read_rows(out)
            assert data.shape == (3, 4) and np.all(np.isfinite(data))
        elif code == 2:
            assert stderr.getvalue().startswith("config error: ")
        else:
            ratio = abs(values["oracle_g"]) / values["oracle_omega"]
            assert (code, values["oracle_n_max"]) == (3, 1) and ratio >= 0.4, stderr.getvalue()


@st.composite
def sweep_config_lines(draw):
    """A sweep config with every scale log-uniform on 1e-300..1e300: ``eta``,
    ``omega_c``, ``t_end``, each ``E_J`` of either sign, ``beta`` for about
    half the draws, a complex ``alpha`` of any modulus, and a few points."""
    wide = log_uniform(1e-300, 1e300)
    sign = st.sampled_from([1.0, -1.0])
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    modulus = draw(wide)
    lines = {
        "eta": draw(wide),
        "omega_c": draw(wide),
        "e_j1": draw(sign) * draw(wide),
        "e_j2": draw(sign) * draw(wide),
        "alpha": complex(modulus * math.cos(phase), modulus * math.sin(phase)),
        "t_end": draw(wide),
        "n_points": draw(st.integers(2, 6)),
    }
    if draw(st.booleans()):
        lines["beta"] = draw(wide)
    return "".join(f"{key} = {value!r}\n" for key, value in lines.items()), lines


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sweep_config_lines(), st.sampled_from(["gfactor", "evolve", "fig1"]))
def test_every_sweep_config_runs_or_is_rejected_by_name(drawn, command):
    # accepted: exit 0, nothing on stderr (no numpy warning either) and
    # n_points rows per table; rejected: exit 2 with one config error line
    text, values = drawn
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = os.path.join(tmp, "sweep.conf"), os.path.join(tmp, "out")
        with open(conf, "w", encoding="utf-8") as handle:
            handle.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", conf, "--out", out])
        if code == 0:
            assert stderr.getvalue() == ""
            paths = [line.split()[1] for line in stdout.getvalue().splitlines()]
            assert len(paths) == (3 if command == "fig1" else 1)
            for path in paths:
                _, data = read_rows(path)
                assert data.shape[0] == values["n_points"]
        else:
            assert code == 2, stderr.getvalue()
            (line,) = stderr.getvalue().splitlines()
            assert line.startswith("config error: ")


def test_load_config_round_trip_through_disk(tmp_path):
    cfg = ExperimentConfig(alpha=1.5 + 0.5j, beta=3e-12, n_points=21)
    path = tmp_path / "saved.conf"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert config_from_mapping(load_config(str(path))) == cfg


# -- reference sweeps: the per-point library calls, written out ------------

REF_ETA, REF_OMEGA_C, REF_E_J = 1e-5, 1e12, 1e10
REF_T_END_PS, REF_POINTS = 8.0, 6


def reference_csv(header, rows):
    lines = [header] + [",".join(f"{v:.16e}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_points(beta):
    """(t, G) on the sweep grid, one closed-form call per point."""
    bath = OhmicBath(REF_ETA, REF_OMEGA_C)
    temp = Temperature.zero() if beta is None else Temperature.finite(beta)
    for t in np.linspace(0.0, REF_T_END_PS * 1e-12, REF_POINTS):
        t = float(t)
        yield t, float(g_ohmic_closed(bath, temp, [t])[0])


def reference_gfactor(beta):
    rows = []
    for t, g in reference_points(beta):
        rows.append((t, t / KS_IN_SECONDS, g, suppression_factor(g)))
    return reference_csv("t_seconds,t_ks,g,delta", rows)


def reference_evolve(alpha, beta):
    names = []
    for i in ("00", "01", "10", "11"):
        for j in ("00", "01", "10", "11"):
            names += [f"re_{i}{j}", f"im_{i}{j}"]
    params = QubitParams(REF_E_J)
    rho0 = initial_state(alpha)
    rows = []
    for t, g in reference_points(beta):
        row = [t, t / KS_IN_SECONDS]
        for value in evolve_pair(rho0, params, params, g, g, t).reshape(-1):
            row += [value.real, value.imag]
        rows.append(row)
    return reference_csv("t_seconds,t_ks," + ",".join(names), rows)


def reference_fig1(alpha, beta):
    params = QubitParams(REF_E_J)
    c0 = 2.0 * abs(alpha) / (1.0 + abs(alpha) ** 2)
    rows = []
    for t, g in reference_points(beta):
        delta = suppression_factor(g)
        d_max = max_decoherence_analytic(g)
        c_t = family_concurrence(alpha, params, params, g, g, t)
        rows.append(
            (t, t / KS_IN_SECONDS, g, g, delta, delta, c_t, c0 * delta * delta, d_max, d_max)
        )
    return reference_csv(CSV_HEADER, rows)


def sweep_argv(command, out, beta, *extra):
    argv = [command, "--out", str(out), "--t-end-ps", repr(REF_T_END_PS)]
    argv += ["--points", str(REF_POINTS), *extra]
    if beta is not None:
        argv += ["--beta", repr(beta)]
    return argv


TEMPERATURES = pytest.mark.parametrize("beta", [None, 2e-12], ids=["zero", "finite"])


@TEMPERATURES
def test_gfactor_matches_reference(tmp_path, beta):
    out = tmp_path / "g.csv"
    assert main(sweep_argv("gfactor", out, beta)) == 0
    assert out.read_bytes() == reference_gfactor(beta)


@TEMPERATURES
def test_evolve_matches_reference_for_complex_alpha(tmp_path, beta):
    out = tmp_path / "e.csv"
    assert main(sweep_argv("evolve", out, beta, "--alpha", "0.6-1.3j")) == 0
    assert out.read_bytes() == reference_evolve(0.6 - 1.3j, beta)


@TEMPERATURES
def test_fig1_single_alpha_matches_reference(tmp_path, beta):
    out = tmp_path / "one.csv"
    assert main(sweep_argv("fig1", out, beta, "--alpha", "0.5+0.25j")) == 0
    assert out.read_bytes() == reference_fig1(0.5 + 0.25j, beta)


@TEMPERATURES
def test_fig1_bundle_matches_reference_and_single_alpha_runs(tmp_path, beta):
    bundle = tmp_path / "bundle"
    assert main(sweep_argv("fig1", bundle, beta)) == 0
    for k in (1, 2, 3):
        single = tmp_path / f"alpha{k}.csv"
        assert main(sweep_argv("fig1", single, beta, "--alpha", str(k))) == 0
        raw = (bundle / f"fig1_alpha{k}.csv").read_bytes()
        assert raw == single.read_bytes()
        assert raw == reference_fig1(complex(k), beta)


@TEMPERATURES
def test_fig1_concurrence_is_wootters_on_the_evolved_states(tmp_path, beta):
    # the closed-form column against the general route: Wootters on the
    # evolve_pair states, here with unequal tunneling energies as well
    bundle, single = tmp_path / "bundle", tmp_path / "one.csv"
    conf = tmp_path / "pair.conf"
    conf.write_text("e_j2 = 1.7e10\n", encoding="utf-8")
    assert main(sweep_argv("fig1", bundle, beta)) == 0
    argv = sweep_argv("fig1", single, beta, "--alpha", "0.5+0.25j", "--config", str(conf))
    assert main(argv) == 0
    p1 = QubitParams(REF_E_J)
    tables = [(complex(k), p1, bundle / f"fig1_alpha{k}.csv") for k in (1, 2, 3)]
    tables.append((0.5 + 0.25j, QubitParams(1.7e10), single))
    for alpha, p2, path in tables:
        _, data = read_rows(str(path))
        rho0 = initial_state(alpha)
        wootters = [
            concurrence(evolve_pair(rho0, p1, p2, g, g, t)) for t, g in reference_points(beta)
        ]
        np.testing.assert_allclose(data[:, 6], wootters, rtol=0, atol=1e-13)


@pytest.mark.parametrize("command", ["gfactor", "evolve", "fig1"])
def test_sweep_runs_where_omega_c_t_reaches_500(tmp_path, command):
    # the quadrature cannot resolve sin^2(omega_c t x) this far out; the
    # closed form the sweep takes has no such edge
    out = tmp_path / "x"
    assert main([command, "--t-end-ps", "500", "--points", "3", "--out", str(out)]) == 0
    if command == "gfactor":
        _, data = read_rows(str(out))
        assert data[-1, 2] == 0.5 * 1e-5 * np.log1p(500.0**2)


@pytest.mark.parametrize("beta", [[], ["--beta", "2e-12"]], ids=["zero", "finite"])
def test_sweep_rejects_a_grid_whose_omega_c_t_squared_overflows(tmp_path, capsys, beta):
    # a config rule now, at either temperature; g_ohmic_closed still raises
    # ToleranceNotMet naming t for such a grid when called directly
    for grid in (["--t-end-ps", "1e308"], ["--omega-c", "1e300"]):
        argv = ["gfactor", *grid, "--points", "2", *beta]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: (omega_c * t_end)**2 must be finite\n"


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--alpha", "2"],
        ["oracle-check", "--eta", "1e-5"],
        ["oracle-check", "--omega-c", "1e12"],
        ["oracle-check", "--t-end-ps", "5"],
        ["oracle-check", "--points", "4"],
        ["gfactor", "--seed", "1"],
        ["evolve", "--seed", "1"],
        ["fig1", "--seed", "1"],
        ["gfactor", "--omega-c", "inf"],
        ["gfactor", "--eta", "inf"],
        ["evolve", "--t-end-ps", "inf"],
        ["fig1", "--alpha", "1e200"],
        ["evolve", "--alpha", "1e200"],
        ["gfactor", "--alpha", "1e200"],
        ["gfactor", "--alpha", "2"],
        ["oracle-check", "--beta", "1e-11"],
        ["oracle-check", "--seed", "-1"],
        ["fig1", "--alpha", "1+"],  # not a complex number: argparse rejects it
    ],
    ids=" ".join,
)
def test_main_exit_two_on_rejected_flags_and_values(tmp_path, argv):
    assert exit_code(argv + ["--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "oracle_omega = inf",
        "oracle_e_j = nan",
        "oracle_e_j = inf",
        "oracle_g = nan+0j",
        "oracle_t = inf",
        "oracle_beta = inf",
        "oracle_beta = 1e-11",  # thermal tail beyond n_max = 8 is 1.2e-4
        "oracle_seed = -1",
        "oracle_n_max = 1024",  # bath dimension 1025 exceeds the 1024 cap
        "oracle_omega = 1e308",  # omega n_max overflows at n_max = 8
        "oracle_g = 7e307",  # |g| sqrt(n_max) overflows at n_max = 8
    ],
)
def test_oracle_check_exit_two_on_unusable_config_values(tmp_path, capsys, line):
    conf = tmp_path / "oracle.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "values,message",
    [
        ({"omega": math.nan}, "oracle_omega must be positive"),
        ({"omega": math.inf}, "oracle_omega must be finite"),
        ({"e_j": math.inf}, "oracle_e_j must be finite"),
        ({"g": complex(0.0, math.nan)}, "oracle_g must be finite"),
        # the dimension rule runs before the finiteness rule
        (
            {"e_j": math.inf, "n_max": 1024},
            "oracle_n_max = 1024: bath dimension 1025 exceeds cap 1024",
        ),
        ({"e_j": math.nan, "t": -1.0}, "oracle_t must be positive"),
        ({"n_max": 0}, "oracle_n_max must be at least 1"),
        ({"beta": 0.0}, "oracle_beta must be positive when given"),
        ({"samples": 0}, "oracle_samples must be at least 1"),
        ({"omega": 1e308}, "oracle_omega * oracle_n_max must be finite"),
        ({"g": 7e307}, "|oracle_g| * sqrt(oracle_n_max) must be finite"),
        # the finiteness rule runs before the ladder rule
        ({"e_j": math.inf, "omega": 1e308}, "oracle_e_j must be finite"),
    ],
    ids=[
        "nan_omega",
        "inf_omega",
        "inf_e_j",
        "nan_g",
        "n_max_first",
        "t_first",
        "n_max_zero",
        "beta_zero",
        "samples_zero",
        "omega_ladder",
        "g_ladder",
        "finite_first",
    ],
)
def test_oracle_config_names_the_first_rule_it_breaks(values, message):
    # a value the oracle's own types would reject reaches no OracleSystem:
    # the config names its key
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        OracleCheckConfig(**values)


def test_oracle_check_caps_the_bath_dimension_not_the_total(tmp_path, capsys):
    # no evolve builds a matrix larger than the bath: B = 601, 2B = 1202
    ocfg = oracle_config_from_mapping(parse_config_text("oracle_n_max = 600\n"))
    assert ocfg.n_max == 600
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_n_max = 1024\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "config error: oracle_n_max = 1024: bath dimension 1025 exceeds cap 1024\n"
    )


def test_oracle_check_runs_with_a_mode_too_slow_to_square(tmp_path):
    # omega^2 underflows; G takes its small-omega form instead of inf * 0
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_omega = 1e-200\noracle_samples = 4\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(conf), "--out", str(tmp_path / "x")]) in (0, 3)


@pytest.mark.parametrize("beta", [None, "5e-11"], ids=["zero", "finite"])
def test_oracle_check_exits_three_when_a_phase_overflows(tmp_path, capsys, beta):
    # oracle_t = 1e300 is finite, but omega t is beyond float range
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_t = 1e300\n" + (f"oracle_beta = {beta}\n" if beta else ""))
    assert main(["oracle-check", "--config", str(conf), "--out", str(tmp_path / "x")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: at t = 1.000000e+300 s: phase w t is not finite\n"


@pytest.mark.parametrize("argv", [["gfactor"], ["evolve"], ["fig1", "--alpha", "2"]], ids=" ".join)
def test_sweep_exit_two_when_the_qubit_phase_overflows(tmp_path, capsys, argv):
    # e_j1 t_end = 1e310 is beyond float range; the small cutoff keeps G finite
    conf = tmp_path / "sweep.conf"
    conf.write_text("e_j1 = 1e300\nomega_c = 1e-300\nt_end = 1e10\nn_points = 2\n")
    assert main(argv + ["--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: e_j1 * t_end must be finite\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--beta", "inf"], "beta must be finite"),
        (["--beta", "5e-324"], "1/(beta * omega_c) must be finite"),
        (["--beta", "1e-200", "--omega-c", "1e-200"], "1/(beta * omega_c) must be finite"),
        (
            ["--beta", "1e-300", "--omega-c", "1e-200", "--t-end-ps", "1e300"],
            "1/(beta * omega_c) must be finite",
        ),
        (["--beta", "1e-300", "--omega-c", "1", "--t-end-ps", "1e22"], "t_end / beta must be finite"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_sweep_exit_two_on_a_beta_no_sweep_can_evaluate(tmp_path, capsys, argv, message):
    # each of these ran to "G is not a number" (exit 3), or, at beta = inf,
    # as zero temperature
    assert main(["gfactor", "--points", "3", "--out", str(tmp_path / "x")] + argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # scipy dominates the import time, so the package loads it on first use
    # only; the oracle's Hermitian generators (dense eigh on the parity
    # blocks, at zero and finite temperature), the Bloch scan and the
    # sweeps (closed-form G, at zero and finite temperature) never need it
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io, sys, qubit_dephasing.cli as cli\n"
        "from qubit_dephasing import channel\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "for extra in ([], ['--beta', '5e-11']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['oracle-check', '--out', sys.argv[1]] + extra)\n"
        "    print(code, loaded())\n"
        "channel.max_decoherence_numeric(channel.QubitParams(1e10), 0.2, 1e-12, 16)\n"
        "print(loaded())\n"
        "for command in ('gfactor', 'fig1'):\n"
        "    for extra in ([], ['--beta', '2e-12']):\n"
        "        argv = [command, '--out', sys.argv[2] + command] + extra\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = cli.main(argv)\n"
        "        print(code, loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "oracle.csv"), str(tmp_path / "s_")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]", "0 []", "0 []", "[]"] + ["0 []"] * 4


def test_the_oracle_and_the_propagator_load_no_scipy(tmp_path):
    # every propagator is spectral: a Hermitian generator goes through eigh
    # and a non-Hermitian one raises NonHermitian, so neither oracle-check
    # (at zero and finite temperature) nor matrix_exponential loads scipy.
    # The quadrature behind g_ohmic, the package's one scipy user, does:
    # the probe would see a load
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io, sys, numpy as np, qubit_dephasing as qd\n"
        "from qubit_dephasing import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "for extra in ([], ['--beta', '5e-11']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['oracle-check', '--out', sys.argv[1]] + extra)\n"
        "    print(code, loaded())\n"
        "h = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])\n"
        "u = qd.matrix_exponential(h, 0.3)\n"
        "print(np.allclose(u @ u.conj().T, np.eye(2)), loaded())\n"
        "try:\n"
        "    qd.matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.8)\n"
        "except qd.NonHermitian:\n"
        "    print('NonHermitian', loaded())\n"
        "qd.g_ohmic(qd.OhmicBath(1e-5, 1e12), qd.Temperature.zero(), 1e-12)\n"
        "print('scipy.integrate' in loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "oracle.csv")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["0 []", "0 []", "True []", "NonHermitian []", "True"]


# -- one stacked call per table -----------------------------------------------------


def counting(monkeypatch, name, module=cli_module):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fig1_bundle_makes_one_stacked_kernel_call_and_forms_no_state(
    tmp_path, monkeypatch
):
    # one pass holds the three alphas; no 4x4 state is formed, not even to
    # validate the config's alpha
    evolves = counting(monkeypatch, "evolve_pair")
    states = counting(monkeypatch, "initial_state")
    kernels = counting(monkeypatch, "family_concurrence_rows")
    wootters = counting(monkeypatch, "concurrence", entanglement_module)
    assert main(sweep_argv("fig1", tmp_path / "bundle", None)) == 0
    assert evolves == [] and states == [] and wootters == []
    assert [(list(args[0]), np.shape(args[-1])) for args in kernels] == [
        ([1, 2, 3], (REF_POINTS,))
    ]


def test_evolve_makes_one_pair_call(tmp_path, monkeypatch):
    evolves = counting(monkeypatch, "evolve_pair")
    kernels = counting(monkeypatch, "family_concurrence_rows")
    wootters = counting(monkeypatch, "concurrence", entanglement_module)
    assert main(sweep_argv("evolve", tmp_path / "e.csv", 2e-12)) == 0
    assert len(evolves) == 1
    assert np.shape(evolves[0][-1]) == (REF_POINTS,)
    assert kernels == [] and wootters == []


@pytest.mark.parametrize("command", ["gfactor", "fig1"])
def test_sweep_calls_suppression_factor_per_table_not_per_point(
    tmp_path, monkeypatch, command
):
    calls = counting(monkeypatch, "suppression_factor")
    counts = []
    for points in (6, 60):
        calls.clear()
        out = tmp_path / f"{command}_{points}"
        assert main([command, "--out", str(out), "--points", str(points)]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def grid_times():
    return [float(t) for t in np.linspace(0.0, REF_T_END_PS * 1e-12, REF_POINTS)]


@pytest.mark.parametrize("command", ["evolve"])
def test_failing_pair_evolution_exits_three_with_the_library_message(
    tmp_path, capsys, monkeypatch, command
):
    # The stacked call fails as a whole; nothing re-runs it point by point.
    original = cli_module.evolve_pair
    late = grid_times()[3]

    def fussy(rho0, p1, p2, g1, g2, t):
        if np.max(t) >= late:
            raise InvalidState("late point")
        return original(rho0, p1, p2, g1, g2, t)

    monkeypatch.setattr(cli_module, "evolve_pair", fussy)
    assert main(sweep_argv(command, tmp_path / "x.csv", None, "--alpha", "2")) == 3
    assert capsys.readouterr().err == "numerical failure: late point\n"


def test_failing_concurrence_exits_three_with_the_library_message(
    tmp_path, capsys, monkeypatch
):
    # A floor no state meets makes the kernel's own check reject the table;
    # the CLI prints the library's message as is.
    monkeypatch.setattr(entanglement_module, "PAIR_PSD_FLOOR", 1.0)
    p = QubitParams(REF_E_J)
    gs = [g for _, g in reference_points(None)]
    with pytest.raises(InvalidState, match="^negative eigenvalue ") as direct:
        family_concurrence(2.0, p, p, gs, gs, grid_times())
    assert main(sweep_argv("fig1", tmp_path / "x.csv", None, "--alpha", "2")) == 3
    assert capsys.readouterr().err == f"numerical failure: {direct.value}\n"


# -- one parser tree per process -----------------------------------------------------


def test_the_cli_builds_its_parser_on_the_first_main_call_only(tmp_path):
    # no tree at import, one on the first call, none after
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    probe = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import qubit_dephasing.cli as cli\n"
        "print(len(built))\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['gfactor', '--points', '2', '--out', sys.argv[1]])\n"
        "    print(code, built.count('qubit-dephasing'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "g.csv")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["0", "0 1", "0 1"]


def test_build_parser_returns_a_fresh_tree():
    assert cli_module.build_parser() is not cli_module.build_parser()


def test_fig1_bundle_after_a_single_alpha_run_matches_a_fresh_process(tmp_path):
    assert main(sweep_argv("fig1", tmp_path / "one.csv", None, "--alpha", "2")) == 0
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert main(sweep_argv("fig1", again, None)) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    subprocess.run(
        [sys.executable, "-m", "qubit_dephasing.cli", *sweep_argv("fig1", fresh, None)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        check=True,
    )
    names = [f"fig1_alpha{k}.csv" for k in (1, 2, 3)]
    assert sorted(os.listdir(again)) == sorted(os.listdir(fresh)) == names
    for name in names:
        assert (again / name).read_bytes() == (fresh / name).read_bytes()


def test_oracle_check_seed_flag_does_not_outlive_its_call(tmp_path, monkeypatch):
    seeds = []

    def record(cfg):
        seeds.append(cfg.seed)
        return [], []

    monkeypatch.setattr(cli_module, "run_oracle_check", record)
    out = str(tmp_path / "o.csv")
    assert main(["oracle-check", "--seed", "3", "--out", out]) == 0
    assert main(["oracle-check", "--out", out]) == 0
    assert seeds == [3, OracleCheckConfig().seed]


# -- one column-wise writer ------------------------------------------------------


def other_nan():
    # a NaN whose payload differs from np.nan's: other bytes, same text
    bits = np.array([np.nan]).view(np.uint64) | np.uint64(1)
    return float(bits.view(float)[0])


def special_columns():
    base = np.array([1.5, -2.25e-300, 3.0, 7.0])
    signed_zero = base.copy()
    signed_zero[2], base[2] = -0.0, 0.0  # equal by value, not by bits
    shared = np.array([np.nan, np.inf, -np.inf, 5e-324])
    payload = shared.copy()
    payload[0] = other_nan()
    extremes = np.array([1.7976931348623157e308, -1.7976931348623157e308, 0.1, -5e-324])
    twin = extremes.copy()  # equal by value, stored apart
    return [base, signed_zero, shared, payload, shared, extremes, twin, base]


def test_writer_matches_the_per_cell_formula_on_special_values(tmp_path):
    columns = special_columns()
    header = ",".join(f"c{k}" for k in range(len(columns)))
    rows = [list(row) for row in zip(*(c.tolist() for c in columns))]
    out = tmp_path / "special.csv"
    assert list(cli_module._write_tables([(str(out), header, columns)])) == [str(out)]
    assert out.read_bytes() == reference_csv(header, rows)
    assert b"-0.0000000000000000e+00" in out.read_bytes()


def test_writer_memo_keeps_signed_zeros_apart_across_tables(tmp_path, monkeypatch):
    # one call writes both tables: the two distinct columns (by bytes, so
    # 0.0 and -0.0 apart) are formatted once, together, for all three uses
    formatted = counting(monkeypatch, "format_cells", celltext)
    zero, minus_zero = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    tables = [(str(first), "x", [zero]), (str(second), "x,y", [minus_zero, zero])]
    assert list(cli_module._write_tables(tables)) == [str(first), str(second)]
    assert first.read_bytes() == reference_csv("x", [[0.0], [1.0]])
    assert second.read_bytes() == reference_csv("x,y", [[-0.0, 0.0], [1.0, 1.0]])
    assert [args[0].size for args in formatted] == [4]


def test_emit_csv_matches_the_per_cell_formula_on_special_values(tmp_path):
    columns = special_columns() + special_columns()[:2]
    rows = [cli_module.TimeSeriesRecord(*row) for row in zip(*(c.tolist() for c in columns))]
    out = tmp_path / "records.csv"
    emit_csv(rows, str(out))
    assert out.read_bytes() == reference_csv(CSV_HEADER, rows)


@pytest.mark.parametrize(
    "columns", [np.empty((4, 0)), np.array([], dtype=float).T], ids=["rows", "columns"]
)
def test_a_table_without_rows_is_its_header_line(tmp_path, columns):
    out = tmp_path / "empty.csv"
    (written,) = cli_module._write_tables([(str(out), cli_module.ORACLE_CSV_HEADER, columns)])
    assert written == str(out)
    assert out.read_bytes() == (cli_module.ORACLE_CSV_HEADER + "\n").encode("utf-8")


def test_fig1_bundle_formats_each_distinct_column_once(tmp_path, monkeypatch):
    # t, t_ks, G, delta and d are shared by all three tables and written
    # twice in each; concurrence and s_reference differ per table: 11 of 30
    formatted = counting(monkeypatch, "format_cells", celltext)
    bundle = tmp_path / "bundle"
    assert main(sweep_argv("fig1", bundle, None)) == 0
    assert [args[0].size for args in formatted] == [11 * REF_POINTS]
    for k in (1, 2, 3):
        assert (bundle / f"fig1_alpha{k}.csv").read_bytes() == reference_fig1(complex(k), None)


def test_fig1_bundle_reports_the_tables_written_before_a_write_error(tmp_path, capsys):
    # the tables are written in turn: a second table that cannot be written
    # leaves the first on disk and its wrote line on stdout, then exits 4
    bundle = tmp_path / "bundle"
    (bundle / "fig1_alpha2.csv").mkdir(parents=True)
    assert main(sweep_argv("fig1", bundle, None)) == 4
    out, err = capsys.readouterr()
    assert out == f"wrote {bundle / 'fig1_alpha1.csv'} ({REF_POINTS} rows)\n"
    assert err.startswith(f"io error: cannot write {bundle / 'fig1_alpha2.csv'}: ")
    assert sorted(os.listdir(bundle)) == ["fig1_alpha1.csv", "fig1_alpha2.csv"]


@pytest.mark.parametrize("command", ["gfactor", "evolve", "fig1"])
def test_a_sweep_whose_g_overflows_runs_silently(tmp_path, capsys, command):
    # eta = 1e308: G past float range is inf, and -4 G past it gives delta = 0,
    # with no numpy warning (an error in this suite)
    assert main([command, "--eta", "1e308", "--points", "5", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("failing", [2, 3], ids=["table2", "table3"])
def test_fig1_bundle_that_fails_writes_no_table(tmp_path, capsys, monkeypatch, failing):
    # the bundle is validated whole before anything is written: a kernel that
    # refuses the second or the third table leaves the first ones unwritten
    # too, and its message reaches stderr unchanged
    original = cli_module.family_concurrence_rows

    def fussy(alphas, *args):
        rows = original(alphas, *args)
        if failing in alphas:
            raise InvalidState(f"alpha {failing} refused")
        return rows

    monkeypatch.setattr(cli_module, "family_concurrence_rows", fussy)
    bundle = tmp_path / "bundle"
    assert main(sweep_argv("fig1", bundle, None)) == 3
    assert os.listdir(bundle) == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"numerical failure: alpha {failing} refused\n"


# -- the array formatter against f"{v:.16e}" ---------------------------------


def cell_lines(cells):
    """The text of each row of ``celltext.format_cells``, NUL bytes dropped."""
    table = np.full((len(cells), 25), ord("\n"), np.uint8)
    table[:, :24] = cells
    return table.tobytes().replace(b"\0", b"").decode().splitlines()


def misformatted(values):
    """The first few ``(v, text, f"{v:.16e}")`` on which the two differ."""
    values = np.asarray(values, dtype=float)
    got = cell_lines(celltext.format_cells(values))
    assert len(got) == values.size
    want = [f"{v:.16e}" for v in values.tolist()]
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w][:5]


def random_bit_patterns(count, seed=20051):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(float)


def powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    return np.concatenate([powers, below, above, -below, -above])


def seventeen_digit_ties(per_exponent=400, seed=17):
    """``m / 2**s`` with exactly 18 significant digits, the last a 5."""
    rng = np.random.default_rng(seed)
    ties = [131073 / 2**17]
    for s in range(2, 26):
        lo, hi = -(-(10**17) // 5**s), (10**18 - 1) // 5**s
        for m in rng.integers(lo, min(hi, 2**53 - 1), per_exponent).tolist():
            m |= 1  # odd: m * 5**s ends in 5
            if m <= hi:
                ties.append(m / 2**s)
    ties = np.array(ties)
    return np.concatenate([ties, -ties])


def zero_heavy(count=4000, seed=34):
    """Mostly ``0.0`` and ``-0.0``, interleaved and in runs, among other bits."""
    rng = np.random.default_rng(seed)
    zeros = np.where(rng.random(count) < 0.5, 0.0, -0.0)
    mixed = np.where(rng.random(count) < 0.9, zeros, random_bit_patterns(count, seed))
    runs = np.repeat([0.0, -0.0, 1.0, -0.0, 0.0, -1.0], 37)
    return np.concatenate([mixed, runs, np.zeros(100), -np.zeros(100)])


def special_values():
    return np.array(
        [0.0, -0.0, np.nan, other_nan(), np.inf, -np.inf, 5e-324, -5e-324,
         1.7976931348623157e308, -1.7976931348623157e308]
    )


@pytest.mark.parametrize(
    "values",
    [
        random_bit_patterns(200_000),
        powers_of_ten_and_neighbours(),
        seventeen_digit_ties(),
        special_values(),
        zero_heavy(),
    ],
    ids=["random_bits", "powers_of_ten", "ties", "specials", "zeros"],
)
def test_format_cells_matches_the_per_cell_formula(values):
    assert misformatted(values) == []


def test_ties_are_exact_seventeen_digit_ties():
    ties = seventeen_digit_ties(per_exponent=20)
    for v in ties.tolist():
        digits = format(abs(v), ".17e").split("e")[0].replace(".", "")
        assert len(digits) == 18 and digits.endswith("5"), v
        assert float(format(v, ".17e")) == v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats()))
def test_format_cells_matches_the_per_cell_formula_on_any_floats(values):
    assert misformatted(values) == []


def test_format_cells_per_cell_route_gives_the_same_bytes(tmp_path, monkeypatch):
    values = np.concatenate([random_bit_patterns(5000, seed=3), special_values()])
    fast = cell_lines(celltext.format_cells(values))
    monkeypatch.setattr(celltext, "EXTENDED_SCALING", False)
    assert cell_lines(celltext.format_cells(values)) == fast
    assert misformatted(values) == []
    bundle = tmp_path / "bundle"
    assert main(sweep_argv("fig1", bundle, 2e-12)) == 0
    for k in (1, 2, 3):
        assert (bundle / f"fig1_alpha{k}.csv").read_bytes() == reference_fig1(
            complex(k), 2e-12
        )


@pytest.mark.skipif(
    not celltext.EXTENDED_SCALING, reason="the powers are used only with x87 long double"
)
def test_scaling_powers_are_within_half_an_ulp_of_ten_to_the_k():
    powers = celltext.tables()[0]
    half_ulp = Fraction(1, 2**64)
    exponents = range(celltext.E_MIN, celltext.E_MAX + 1)
    assert len(powers) == len(exponents)
    for e, power in zip(exponents, powers):
        exact = Fraction(10) ** (16 - e)
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= half_ulp * exact, e


def test_importing_the_cli_defers_the_cell_formatter(tmp_path):
    # the formatter module and its tables load with the first table written
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    probe = (
        "import contextlib, io, sys, qubit_dephasing.cli as cli\n"
        "print('qubit_dephasing.celltext' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['gfactor', '--points', '3', '--out', sys.argv[1]])\n"
        "print('qubit_dephasing.celltext' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "g.csv")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["False", "True"]

