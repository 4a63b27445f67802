"""The model's symmetries: the fast path against itself at two inputs.

Each property needs no reference implementation. Scaling reaches the CLI
bytes, where the units live (rad/s, seconds, ps); exchange and the sign of
``alpha`` hold for the two-qubit kernels.
"""

import contextlib
import io
import math
import os
import re
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubit_dephasing.channel import QubitParams, evolve_pair
from qubit_dephasing.cli import OracleCheckConfig, main, run_oracle_check
from qubit_dephasing.entanglement import family_concurrence
from qubit_dephasing.errors import ConfigError

EPS = np.finfo(float).eps
SWAP = np.eye(4)[[0, 2, 1, 3]]  # |q1 q2> -> |q2 q1>


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# -- dimensionless scaling, through main ---------------------------------------


@st.composite
def scalable_configs(draw):
    """A sweep config in physical ranges: every dimensionless product
    (``omega_c t``, ``beta omega_c``, ``E_J t``) within 1e-3..1e3 and every
    scale within 1e6..1e15 rad/s, so that each value scaled by up to 2**8
    either way stays far inside float range, clear of overflow and of
    subnormals, where scaling by a power of two is exact."""
    omega_c = draw(log_uniform(1e6, 1e15))
    t_end = draw(log_uniform(1e-3, 1e3)) / omega_c
    sign = st.sampled_from([1.0, -1.0])
    values = {
        "eta": draw(log_uniform(1e-8, 1.0)),
        "omega_c": omega_c,
        "e_j1": draw(sign) * draw(log_uniform(1e-3, 1e3)) / t_end,
        "e_j2": draw(sign) * draw(log_uniform(1e-3, 1e3)) / t_end,
        "alpha": complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))),
        "t_start": draw(st.sampled_from([0.0, 0.25, 0.5])) * t_end,
        "t_end": t_end,
        "n_points": draw(st.integers(2, 9)),
    }
    if draw(st.booleans()):
        values["beta"] = draw(log_uniform(1e-3, 1e3)) / omega_c
    return values


FREQUENCIES, TIMES = ("omega_c", "e_j1", "e_j2"), ("t_start", "t_end", "beta")


def scaled(values, m, frequencies=FREQUENCIES, times=TIMES):
    """``values`` with every frequency times ``2**m`` and every time over it."""
    out = dict(values)
    for key in frequencies:
        out[key] = values[key] * 2.0**m
    for key in times:
        if key in values:
            out[key] = values[key] * 2.0**-m
    return out


def run_tables(command, values, alpha_flag):
    """The bytes of each table ``command`` writes for ``values``, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = os.path.join(tmp, "run.conf"), os.path.join(tmp, "out")
        with open(conf, "w", encoding="utf-8") as handle:
            handle.write("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        argv = [command, "--config", conf, "--out", out]
        if alpha_flag:
            argv += ["--alpha", repr(values["alpha"])]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        names = sorted(os.listdir(out)) if os.path.isdir(out) else [""]
        tables = {}
        for name in names:
            with open(os.path.join(out, name) if name else out, "rb") as handle:
                tables[name] = handle.read()
        return tables


def without_times(table):
    """Each line of a table without its ``t_seconds`` and ``t_ks`` cells."""
    return [line.split(b",", 2)[2] for line in table.splitlines()]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    scalable_configs(),
    st.integers(-8, 8),
    st.sampled_from(["gfactor", "evolve", "fig1"]),
    st.booleans(),
)
def test_scaling_frequencies_up_and_times_down_keeps_every_other_column(
    values, m, command, alpha_flag
):
    # G depends on omega_c t, beta omega_c and t / beta, the channel on E_J t:
    # with frequencies times 2**m and times over it, each product keeps its
    # bits, and so does every column but the two time columns
    alpha_flag = alpha_flag and command == "fig1"
    base = run_tables(command, values, alpha_flag)
    other = run_tables(command, scaled(values, m), alpha_flag)
    assert base.keys() == other.keys()
    for name in base:
        assert without_times(other[name]) == without_times(base[name])


# -- qubit exchange and the sign of alpha --------------------------------------


@st.composite
def pair_points(draw):
    """Two qubits with E_J of either sign, exponents g1, g2 and a time."""
    sign = st.sampled_from([1.0, -1.0])
    p1 = QubitParams(draw(sign) * draw(log_uniform(1e8, 1e12)))
    p2 = QubitParams(draw(sign) * draw(log_uniform(1e8, 1e12)))
    g1, g2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    return p1, p2, g1, g2, draw(log_uniform(1e-14, 1e-10))


nonzero_alphas = st.builds(
    lambda r, phi: complex(r * math.cos(phi), r * math.sin(phi)),
    log_uniform(1e-2, 1e2),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(nonzero_alphas, pair_points())
def test_exchanging_the_qubits_keeps_the_family_concurrence(alpha, point):
    # swapping the qubits maps (|01> + alpha |10>) to a phase times
    # (|01> + |10>/alpha); 0.6 eps at most over 2,000 random draws of these
    # ranges
    p1, p2, g1, g2, t = point
    c = family_concurrence(alpha, p1, p2, g1, g2, t)
    assert abs(family_concurrence(1.0 / alpha, p2, p1, g2, g1, t) - c) <= 4 * EPS


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), pair_points())
def test_exchanging_the_qubit_axes_commutes_with_evolve_pair(seed, point):
    # any state: evolving SWAP rho SWAP with the qubits' parameters swapped,
    # then swapping back, is the evolved state; 0.5 eps at most over 2,000
    # random draws
    p1, p2, g1, g2, t = point
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = evolve_pair(rho, p1, p2, g1, g2, t)
    swapped = SWAP @ evolve_pair(SWAP @ rho @ SWAP, p2, p1, g2, g1, t) @ SWAP
    assert np.abs(swapped - out).max() <= 4 * EPS


@settings(derandomize=True, max_examples=200, deadline=None)
@given(nonzero_alphas, pair_points())
def test_the_sign_of_alpha_leaves_the_concurrence_bit_identical(alpha, point):
    # -alpha is alpha under Z on qubit 1, a local unitary that commutes with
    # independent dephasing; the closed form sees only moduli, so the bits
    # agree too (a common bath would break this)
    p1, p2, g1, g2, t = point
    c = family_concurrence(alpha, p1, p2, g1, g2, t)
    assert family_concurrence(-alpha, p1, p2, g1, g2, t) == c


# -- dimensionless scaling of oracle-check -------------------------------------

# Both deviations are the largest entrywise gap between two qubit states,
# whose entries are at most 1: their rounding noise is absolute, ten times
# the 1e-15 that oracle-check reads at its defaults, whatever their size.
DEVIATION_NOISE = 1e-14
SCALING_REL_TOL = 1e-12
ORACLE_FREQUENCIES, ORACLE_TIMES = ("omega", "g", "e_j"), ("t", "beta")


@st.composite
def oracle_configs(draw):
    """An ``oracle-check`` config over the ranges of the CLI property:
    ``omega`` within 1e8..1e14 rad/s and every dimensionless product
    (``|g|/omega``, ``E_J/omega``, ``omega t``, ``beta omega``) within
    1e-3..1e2, couplings far past the truncation included, so each value
    scaled by up to 2**8 either way stays far inside float range, where
    scaling by a power of two is exact."""
    omega = draw(log_uniform(1e8, 1e14))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    g = draw(log_uniform(1e-3, 30.0)) * omega
    values = {
        "omega": omega,
        "g": complex(g * math.cos(phase), g * math.sin(phase)),
        "n_max": draw(st.integers(2, 12)),
        "e_j": draw(st.sampled_from([1.0, -1.0])) * draw(log_uniform(1e-3, 10.0)) * omega,
        "t": draw(log_uniform(0.01, 10.0)) / omega,
    }
    if draw(st.booleans()):
        values["beta"] = draw(log_uniform(0.1, 100.0)) / omega
    return values


def run_oracle(values):
    try:
        return run_oracle_check(OracleCheckConfig(**values))
    except ConfigError as exc:
        return str(exc)


def agree(a, b, noise):
    return (math.isnan(a) and math.isnan(b)) or abs(b - a) <= SCALING_REL_TOL * abs(a) + noise


def without_numbers(message):
    return re.sub(r"-?\d+\.\d+(e[-+]\d+)?", "#", message)


# a coupling 20 times omega: the halving-ratio gate fires (ratio 2.95)
OVERSIZED_COUPLING = {"omega": 1e11, "g": 2e12 + 0j, "n_max": 8, "e_j": 1e10, "t": 4e-13}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(oracle_configs(), st.integers(-8, 8))
@example(OVERSIZED_COUPLING, 5)
@example(OVERSIZED_COUPLING, -7)
def test_scaling_oracle_frequencies_up_and_times_down_keeps_the_check(values, m):
    # the propagators depend on omega t, g t, E_J t and beta omega: with
    # omega, g and E_J times 2**m and t and beta over it, t_seconds scales
    # exactly, the same gates fire, and the other columns agree within a
    # relative 1e-12 over the deviations' absolute rounding noise (LAPACK's
    # eigh is not promised to be scale-equivariant; here they are bit-equal)
    base = run_oracle(values)
    other = run_oracle(scaled(values, m, ORACLE_FREQUENCIES, ORACLE_TIMES))
    if isinstance(base, str):  # a rejected config is rejected alike
        assert other == base
        return
    (rows, violations), (scaled_rows, scaled_violations) = base, other
    assert [without_numbers(v) for v in scaled_violations] == [
        without_numbers(v) for v in violations
    ]
    assert len(scaled_rows) == len(rows)
    for row, scaled_row in zip(rows, scaled_rows):
        assert scaled_row.t_seconds == row.t_seconds * 2.0**-m
        dev, ratio = row.split_vs_exact, row.ratio_at_half_t
        assert agree(dev, scaled_row.split_vs_exact, DEVIATION_NOISE)
        assert agree(row.channel_vs_split, scaled_row.channel_vs_split, DEVIATION_NOISE)
        # dev / half_dev, with half_dev = dev / ratio, carries both noises
        noise = DEVIATION_NOISE * (1.0 + ratio) * ratio / dev if dev > 0.0 else math.inf
        assert agree(ratio, scaled_row.ratio_at_half_t, noise)
