import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubit_dephasing
import qubit_dephasing.cli as cli_module
from qubit_dephasing.bath import (
    OhmicBath,
    Temperature,
    default_quadrature,
    g_ohmic,
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
from qubit_dephasing.entanglement import concurrence, initial_state
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


def test_oracle_config_from_shared_file():
    text = "eta = 1e-5\noracle_n_max = 6\noracle_seed = 11\n"
    ocfg = oracle_config_from_mapping(parse_config_text(text))
    assert ocfg.n_max == 6
    assert ocfg.seed == 11
    assert ocfg.e_j == 1e10  # default untouched by experiment keys


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    log_uniform(1e-8, 1.0),
    log_uniform(1e9, 1e15),
    log_uniform(1e-15, 1e-9),
    log_uniform(1e6, 1e13),
    log_uniform(1e6, 1e13),
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    log_uniform(1e-14, 1e-8),
)
def test_every_finite_temperature_config_runs(eta, omega_c, beta, e_j1, e_j2, alpha, t_end):
    cfg = ExperimentConfig(
        eta=eta,
        omega_c=omega_c,
        beta=beta,
        e_j1=e_j1,
        e_j2=e_j2,
        alpha=alpha,
        t_end=t_end,
        n_points=20,
    )
    rows = np.array(run_experiment(cfg))
    assert np.all(np.isfinite(rows))
    t, g = rows[:, 0], rows[:, 2]
    assert np.array_equal(g, rows[:, 3])
    assert np.all(np.diff(g) >= 0.0)
    assert np.all(g >= 0.5 * eta * np.log1p((omega_c * t) ** 2))


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


def test_main_exit_three_on_tolerance_failure(tmp_path):
    conf = tmp_path / "oracle.conf"
    conf.write_text("oracle_g = 2e12+0j\noracle_samples = 4\n", encoding="utf-8")
    out = tmp_path / "oc.csv"
    assert main(["oracle-check", "--config", str(conf), "--out", str(out)]) == 3
    assert out.exists()  # rows are still written for inspection


def test_main_exit_four_on_io_failure(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir"
    assert main(["gfactor", "--points", "4", "--out", str(missing_dir / "x.csv")]) == 4
    assert main(["gfactor", "--config", str(tmp_path / "absent.conf")]) == 4


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
    """(t, G) on the sweep grid, one library call per point: the quadrature
    at zero temperature, the closed form at finite temperature."""
    bath = OhmicBath(REF_ETA, REF_OMEGA_C)
    temp = Temperature.zero() if beta is None else Temperature.finite(beta)
    quad = default_quadrature()
    for t in np.linspace(0.0, REF_T_END_PS * 1e-12, REF_POINTS):
        t = float(t)
        if beta is None:
            yield t, g_ohmic(bath, temp, t, quad)
        else:
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
    rho0 = initial_state(alpha)
    c0 = 2.0 * abs(alpha) / (1.0 + abs(alpha) ** 2)
    rows = []
    for t, g in reference_points(beta):
        delta = suppression_factor(g)
        d_max = max_decoherence_analytic(g)
        c_t = concurrence(evolve_pair(rho0, params, params, g, g, t))
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


@pytest.mark.parametrize(
    "argv,t_label",
    [
        # omega_c t = 500 at the last point: the Ohmic quadrature cannot
        # resolve sin^2(omega_c t x) and raises ToleranceNotMet
        (["gfactor", "--t-end-ps", "500", "--points", "3"], "5.000000e-10"),
        (["evolve", "--t-end-ps", "500", "--points", "3"], "5.000000e-10"),
        # omega_c t x / 2 overflows float range before the quadrature starts
        (["gfactor", "--t-end-ps", "1e308", "--points", "2"], "1.000000e+296"),
        (
            ["gfactor", "--t-end-ps", "1e308", "--points", "2", "--beta", "2e-12"],
            "1.000000e+296",
        ),
    ],
    ids=["gfactor", "evolve", "gfactor-phase-overflow", "gfactor-phase-overflow-finite"],
)
def test_sweep_past_quadrature_edge_exits_three_naming_t(tmp_path, capsys, argv, t_label):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith(f"numerical failure: at t = {t_label} s: ")


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
        ["oracle-check", "--beta", "1e-11"],
        ["oracle-check", "--seed", "-1"],
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
    ],
)
def test_oracle_check_exit_two_on_unusable_config_values(tmp_path, capsys, line):
    conf = tmp_path / "oracle.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


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


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # scipy dominates the import time, so the package loads it on first use
    # only; the oracle's Hermitian generators (dense eigh on the parity
    # blocks, at zero and finite temperature), the Bloch scan and the
    # finite-temperature sweeps (closed-form G) never need it
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
        "    argv = [command, '--beta', '2e-12', '--out', sys.argv[2] + command]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "oracle.csv"), str(tmp_path / "s_")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]", "0 []", "0 []", "[]", "0 []", "0 []"]


# -- one stacked pair call per table -------------------------------------------------


def counting(monkeypatch, name):
    calls = []
    original = getattr(cli_module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli_module, name, wrapper)
    return calls


def test_fig1_bundle_makes_one_pair_call_and_one_concurrence_call_per_table(
    tmp_path, monkeypatch
):
    evolves = counting(monkeypatch, "evolve_pair")
    concurrences = counting(monkeypatch, "concurrence")
    assert main(sweep_argv("fig1", tmp_path / "bundle", None)) == 0
    assert len(evolves) == 3
    assert len(concurrences) == 3
    assert all(np.shape(args[0]) == (REF_POINTS, 4, 4) for args in concurrences)


def test_evolve_makes_one_pair_call(tmp_path, monkeypatch):
    evolves = counting(monkeypatch, "evolve_pair")
    concurrences = counting(monkeypatch, "concurrence")
    assert main(sweep_argv("evolve", tmp_path / "e.csv", 2e-12)) == 0
    assert len(evolves) == 1
    assert np.shape(evolves[0][-1]) == (REF_POINTS,)
    assert concurrences == []


def grid_times():
    return [float(t) for t in np.linspace(0.0, REF_T_END_PS * 1e-12, REF_POINTS)]


@pytest.mark.parametrize("command", ["evolve", "fig1"])
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
    # The corner population of the alpha = 2 state grows with G; the fake
    # validator rejects the stack by its largest corner, as check_pair_state
    # names the worst defect of a stack.
    original = cli_module.concurrence
    times = grid_times()
    gs = [g for _, g in reference_points(None)]
    p = QubitParams(REF_E_J)
    corners = [
        evolve_pair(initial_state(2.0), p, p, g, g, t)[0, 0].real for t, g in zip(times, gs)
    ]
    level = 0.5 * (corners[2] + corners[3])
    assert corners[2] < level < corners[3]

    def fussy(rho):
        worst = float(np.max(np.asarray(rho)[..., 0, 0].real))
        if worst > level:
            raise InvalidState(f"corner {worst:.3e}")
        return original(rho)

    monkeypatch.setattr(cli_module, "concurrence", fussy)
    assert main(sweep_argv("fig1", tmp_path / "x.csv", None, "--alpha", "2")) == 3
    assert capsys.readouterr().err == f"numerical failure: corner {max(corners):.3e}\n"
