"""The model's symmetries: the fast path against itself at two inputs.

Each property needs no reference implementation. Scaling reaches the CLI
bytes, where the units live (rad/s, seconds, ps); exchange and the sign of
``alpha`` hold for the two-qubit kernels.
"""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qubit_dephasing.channel import QubitParams, evolve_pair
from qubit_dephasing.cli import main
from qubit_dephasing.entanglement import family_concurrence

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


def scaled(values, m):
    """``values`` with every frequency times ``2**m`` and every time over it."""
    out = dict(values)
    for key in FREQUENCIES:
        out[key] = math.ldexp(values[key], m)
    for key in TIMES:
        if key in values:
            out[key] = math.ldexp(values[key], -m)
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
