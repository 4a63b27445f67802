"""Self-test of the benchmark itself, not of the package.

Run from the repository root:

    python3 bench/selftest.py

It checks that

1. one seed gives the identical op list twice, and another seed a
   different one;
2. the generators emit only valid inputs: every sweep op passes the CLI's
   argument parser and ``ExperimentConfig`` (no ``ConfigError``), and every
   oracle op builds its system and thermal state (no thermal-tail
   ``ValueError``) at a total dimension of at most 200;
3. two traced passes over the same ops give exactly the same counters;
4. every sweep op that fails exits with code 3 after a ``ToleranceNotMet``
   in ``g_ohmic``, and ops past the quadrature edge do fail.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

import run  # sets the BLAS thread limits before numpy loads

sys.path.insert(0, run.SRC)

import os
import tempfile

from qubit_dephasing import cli
from qubit_dephasing.bath import Temperature
from qubit_dephasing.channel import QubitParams
from qubit_dephasing.errors import DephasingError
from qubit_dephasing.oracle import FockMode, OracleSystem, thermal_bath_state

import opgen
from tracing import Tracer
from workloads import WORKLOADS

SEEDS = range(12)
OPS_PER_SEED = 200
MAX_ORACLE_DIM = 200
# Per-layer metrics that count work rather than time it.
COUNTED_SUFFIXES = (
    ".calls", ".failed", "_ratio", ".integrand_evals", ".n3_sum", ".csv_bytes",
    ".checks_per_state",
)


class CheckFailed(Exception):
    pass


def expect(condition, detail) -> None:
    if not condition:
        raise CheckFailed(detail)


def check_same_seed_same_ops():
    for workload in opgen.GENERATORS:
        first = opgen.take(workload, 3, OPS_PER_SEED)
        expect(first == opgen.take(workload, 3, OPS_PER_SEED), workload)
        expect(first != opgen.take(workload, 4, OPS_PER_SEED), workload)


def check_inputs_are_valid():
    parser = cli.build_parser()
    for seed in SEEDS:
        for op in opgen.take("sweep", seed, OPS_PER_SEED):
            try:
                args = parser.parse_args(op.argv("out.csv"))
            except SystemExit:
                raise CheckFailed(f"the CLI rejects {op.argv('out.csv')}") from None
            cli.ExperimentConfig(
                omega_c=args.omega_c,
                beta=args.beta,
                t_end=args.t_end_ps * 1e-12,
                n_points=args.points,
                alpha=1.0 + 0j if args.alpha is None else args.alpha,
            )
        for op in opgen.take("bloch_scan", seed, OPS_PER_SEED):
            QubitParams(op.e_j)
            expect(0.0 <= op.g <= 0.5 and op.t > 0.0 and 24 <= op.grid <= 64, op)
        for op in opgen.take("oracle", seed, OPS_PER_SEED):
            system = OracleSystem(op.e_j, tuple(FockMode(*m) for m in op.modes))
            expect(system.total_dim == op.dim <= MAX_ORACLE_DIM, op)
            temp = Temperature.zero() if op.beta is None else Temperature.finite(op.beta)
            thermal_bath_state(system, temp)


def _traced_counts(workload, ops):
    tracer = Tracer()
    with tracer.installed():
        done = run.run_ops(workload, ops)
    metrics = run.layer_metrics(tracer, done)
    counts = {k: v for k, (v, _) in metrics.items() if k.endswith(COUNTED_SUFFIXES)}
    return counts, tracer, done


def check_counters_repeat(workdir):
    for name, cls in WORKLOADS.items():
        workload = cls(workdir)
        ops = opgen.take(name, 5, 8)
        first, _, _ = _traced_counts(workload, ops)
        second, _, _ = _traced_counts(workload, ops)
        expect(first == second, (name, first, second))
        expect(any(v for k, v in first.items() if k.endswith(".calls")), name)


def check_sweep_failures_are_numerical(workdir):
    # long horizons, where the quadrature limit lies
    ops = [op for op in opgen.take("sweep", 0, OPS_PER_SEED) if op.horizon > 300.0][:6]
    _, tracer, done = _traced_counts(WORKLOADS["sweep"](workdir), ops)
    failed = [v for _, _, v in done if not v.ok]
    expect(failed, "no op failed past the quadrature edge")
    for verdict in failed:
        expect(verdict.failure.startswith("exit 3:") and not verdict.unexpected, verdict)
    g_errors = {k: n for k, n in tracer.errors.items() if k[0] == "bath.g_ohmic"}
    expect(g_errors == {("bath.g_ohmic", "ToleranceNotMet"): len(failed)}, g_errors)


def main() -> int:
    failures = 0
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        checks = {
            "same seed, same ops": check_same_seed_same_ops,
            "valid inputs only": check_inputs_are_valid,
            "counters repeat": lambda: check_counters_repeat(workdir),
            "sweep failures are numerical": lambda: check_sweep_failures_are_numerical(workdir),
        }
        for label, check in checks.items():
            try:
                check()
            except (CheckFailed, DephasingError, ValueError) as exc:
                failures += 1
                print(f"FAIL {label}: {exc}")
            else:
                print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
