"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion pins its tolerance and a wall-clock budget.
"""

import cmath
import math
import time

import numpy as np
import scipy.linalg

from qubit_dephasing.bath import (
    OhmicBath,
    Temperature,
    g_ohmic,
    suppression_factor,
)
from qubit_dephasing.channel import (
    QubitParams,
    check_pair_state,
    check_qubit_state,
    cptp_check,
    evolve_pair,
    evolve_single,
    max_decoherence_analytic,
    max_decoherence_numeric,
)
from qubit_dephasing.cli import ExperimentConfig, run_experiment
from qubit_dephasing.entanglement import concurrence, initial_state
from qubit_dephasing.oracle import (
    FockMode,
    OracleSystem,
    bath_coupling_operator,
    bath_free_hamiltonian,
    channel_discrepancy,
    dual_model_hamiltonian,
    exact_evolve,
    split_deviation,
    split_evolve,
    thermal_bath_state,
    trace_out_bath,
)
from qubit_dephasing.qmath import matrix_exponential

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

ORACLE_MODE = FockMode(1e11, 1e10 * cmath.exp(1j * math.pi / 7.0), 8)


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _random_pure_states(rng, count, dim):
    states = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        states.append(np.outer(v, v.conj()))
    return states


def test_criterion_1_concurrence_factorizes_for_maximal_entanglement():
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig())  # alpha = 1, 200 points
    worst = max(abs(r.concurrence - r.delta1 * r.delta2) for r in rows)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"C(t) = delta1*delta2 over the default sweep "
        f"(max gap {worst:.3e} vs 1e-10, {elapsed:.1f} s vs 10 s)",
    )


def test_criterion_2_partial_entanglement_falls_below_the_product_reference():
    start = time.perf_counter()
    worst_c0 = 0.0
    min_gap = math.inf
    for alpha, c0 in ((2.0, 0.8), (3.0, 0.6)):
        rows = run_experiment(ExperimentConfig(alpha=complex(alpha)))
        worst_c0 = max(worst_c0, abs(rows[0].concurrence - c0))
        min_gap = min(min_gap, min(r.s_reference - r.concurrence for r in rows[1:]))
    # same ordering must survive a finite-temperature sweep
    warm_rows = run_experiment(ExperimentConfig(alpha=2.0 + 0j, beta=1e-12))
    warm_gap = min(r.s_reference - r.concurrence for r in warm_rows[1:])
    elapsed = time.perf_counter() - start
    ok = worst_c0 <= 1e-10 and min_gap > 0.0 and warm_gap > 0.0 and elapsed < 20.0
    _verdict(
        2,
        ok,
        f"alpha in {{2, 3}}: C(0) exact to {worst_c0:.2e}, C(t) < reference for "
        f"t > 0 (min gap {min_gap:.2e}; warm sweep min gap {warm_gap:.2e}; "
        f"{elapsed:.1f} s vs 20 s)",
    )


def test_criterion_3_ohmic_exponent_matches_the_closed_form():
    start = time.perf_counter()
    bath = OhmicBath(1e-5, 1e12)
    temp = Temperature.zero()
    worst = 0.0
    for t in np.logspace(-14.0, -11.0, 50):
        got = g_ohmic(bath, temp, float(t))
        expect = 0.5 * 1e-5 * math.log(1.0 + (1e12 * t) ** 2)
        worst = max(worst, abs(got - expect) / expect)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(
        3,
        ok,
        f"zero-temperature exponent vs (eta/2) ln(1 + (omega_c t)^2) over 50 "
        f"log-spaced times (max rel {worst:.3e} vs 1e-8, {elapsed:.1f} s vs 5 s)",
    )


def test_criterion_4_numeric_maximum_decoherence_matches_analytic():
    start = time.perf_counter()
    params = QubitParams(1e10)
    worst = 0.0
    for g in (1e-5, 1e-2, 0.25, 1.0):
        got = max_decoherence_numeric(params, g, 1.3e-12, 128)
        worst = max(worst, abs(got - max_decoherence_analytic(g)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _verdict(
        4,
        ok,
        f"Bloch-sphere scan at grid 128 vs (1 - delta)/2 for four exponents "
        f"(max gap {worst:.3e} vs 1e-4, {elapsed:.1f} s vs 30 s)",
    )


def test_criterion_5_channel_agrees_with_the_brute_force_propagator():
    start = time.perf_counter()
    system = OracleSystem(1e10, (ORACLE_MODE,))
    temp = Temperature.finite(2e-11)
    gap = channel_discrepancy(system, temp, 1e-12, 8)
    coarse = split_deviation(system, temp, 2e-13, 8)
    fine = split_deviation(system, temp, 1e-13, 8)
    ratio = coarse / fine
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-6 and 6.0 <= ratio <= 10.0 and elapsed < 60.0
    _verdict(
        5,
        ok,
        f"channel vs split propagator gap {gap:.3e} vs 1e-6 at t = 1 ps; "
        f"halving ratio {ratio:.2f} in [6, 10]; {elapsed:.1f} s vs 60 s",
    )


def test_criterion_6_concurrence_reference_values():
    start = time.perf_counter()
    flip = np.kron(SIGMA_Y, SIGMA_Y)

    def by_square_roots(rho):
        root = scipy.linalg.sqrtm(rho)
        r = scipy.linalg.sqrtm(root @ (flip @ rho.conj() @ flip) @ root)
        lams = np.sort(np.linalg.eigvals(r).real)[::-1]
        return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))

    bells = [
        np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
        np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
    ]
    worst = 0.0
    for vec in bells:
        worst = max(worst, abs(concurrence(np.outer(vec, vec.conj())) - 1.0))
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    worst = max(worst, concurrence(product))
    singlet = np.outer(bells[3], bells[3].conj())
    for p in (0.2, 1.0 / 3.0, 0.5, 0.9):
        werner = p * singlet + (1.0 - p) * 0.25 * np.eye(4)
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        worst = max(worst, abs(concurrence(werner) - expect))
        worst = max(worst, abs(concurrence(werner) - by_square_roots(werner)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(
        6,
        ok,
        f"Bell, product, and Werner concurrences vs closed forms and the "
        f"square-root route (max gap {worst:.3e} vs 1e-10, {elapsed:.1f} s vs 1 s)",
    )


def test_criterion_7_channel_is_physical():
    start = time.perf_counter()
    params = QubitParams(1e10)
    cptp_ok = all(cptp_check(params, g, 1.7e-12) for g in (0.0, 1e-5, 0.25, 2.0))
    rng = np.random.default_rng(31)
    valid = True
    try:
        for rho in _random_pure_states(rng, 500, 2):
            out = evolve_single(
                rho, params, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 4e-12))
            )
            check_qubit_state(out)
        p2 = QubitParams(0.8e10)
        for rho in _random_pure_states(rng, 500, 4):
            out = evolve_pair(
                rho,
                params,
                p2,
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 4e-12)),
            )
            check_pair_state(out)
    except Exception:  # validator raised: some output left the state space
        valid = False
    elapsed = time.perf_counter() - start
    ok = cptp_ok and valid and elapsed < 10.0
    _verdict(
        7,
        ok,
        f"Choi positivity and trace preservation for four exponents; 500 single "
        f"and 500 pair evolved states stay valid ({elapsed:.1f} s vs 10 s)",
    )


def test_criterion_8_dual_model_reproduces_the_primary_dynamics():
    start = time.perf_counter()
    system = OracleSystem(1e10, (ORACLE_MODE,))
    id_bath = np.eye(system.bath_dim, dtype=complex)
    hs_dual = np.kron(-0.5 * system.e_j * SIGMA_Z, id_bath)
    interaction_dual = np.kron(np.eye(2, dtype=complex), bath_free_hamiltonian(system.modes)) + np.kron(
        SIGMA_X, bath_coupling_operator(system.modes)
    )
    rng = np.random.default_rng(29)
    worst_split_excess = -math.inf
    worst_exact = 0.0
    for temp in (Temperature.zero(), Temperature.finite(2e-11)):
        theta = thermal_bath_state(system, temp)
        for t in (1e-13, 2e-13):
            outer = matrix_exponential(hs_dual, 0.5 * t)
            u_split_dual = outer @ matrix_exponential(interaction_dual, t) @ outer
            u_exact_dual = matrix_exponential(dual_model_hamiltonian(system), t)
            for rho0 in _random_pure_states(rng, 4, 2):
                rotated_input = HADAMARD @ rho0 @ HADAMARD
                reference = exact_evolve(system, rotated_input, temp, t)
                # bound: the primary split error at the rotated input
                budget = float(
                    np.abs(
                        split_evolve(system, rotated_input, temp, t) - reference
                    ).max()
                )
                for u, is_split in ((u_split_dual, True), (u_exact_dual, False)):
                    joint = u @ np.kron(rho0, theta) @ u.conj().T
                    reduced = trace_out_bath(joint, system.bath_dim)
                    rotated_output = HADAMARD @ reduced @ HADAMARD
                    gap = float(np.abs(rotated_output - reference).max())
                    if is_split:
                        worst_split_excess = max(
                            worst_split_excess, gap - (budget * 1.000001 + 1e-12)
                        )
                    else:
                        worst_exact = max(worst_exact, gap)
    elapsed = time.perf_counter() - start
    ok = worst_split_excess <= 0.0 and worst_exact <= 1e-12 and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"Hadamard-rotated dual dynamics vs primary: split within its own error "
        f"budget (excess {worst_split_excess:.2e}), exact gap {worst_exact:.2e} "
        f"vs 1e-12 ({elapsed:.1f} s vs 60 s)",
    )
