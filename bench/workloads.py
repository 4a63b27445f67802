"""Execution and output checks of one benchmark op per workload.

Each workload splits an op in two: ``prepare`` returns a zero-argument
callable that makes exactly the public-entry-point calls being timed, and
``check`` inspects what it returned (or raised) outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from qubit_dephasing import channel, cli, oracle
from qubit_dephasing.bath import Temperature
from qubit_dephasing.channel import (
    HERMITICITY_TOL,
    TRACE_TOL,
    QubitParams,
    max_decoherence_analytic,
)
from qubit_dephasing.oracle import FockMode, OracleSystem

from opgen import BlochOp, OracleOp, SweepOp

# Concurrence and product reference must agree this closely where they are
# equal in exact arithmetic (alpha = 1 everywhere, every alpha at t = 0).
CONCURRENCE_MATCH_TOL = 1e-10
# Relative agreement of the zero-temperature exponent with its closed form.
G_CLOSED_FORM_RTOL = 1e-8
# Slack on the analytic maximum of the Bloch-sphere search.
BLOCH_SLACK = 1e-12
# Sampling seed of the oracle's random pure states (the CLI default).
ORACLE_SAMPLE_SEED = cli.OracleCheckConfig().seed


@dataclass
class Verdict:
    """Outcome of one op.

    ``failure`` describes why the op did not complete; ``unexpected`` marks
    a failure that means a wrong result or an unforeseen error rather than
    the known quadrature limit.
    """

    ok: bool
    failure: str | None = None
    unexpected: bool = False
    csv_bytes: int = 0


def _fail(reason: str) -> Verdict:
    return Verdict(ok=False, failure=reason, unexpected=True)


def _raised(error: BaseException) -> Verdict:
    return _fail(f"{type(error).__name__}: {error}")


class Sweep:
    """``cli.main`` in process, writing CSV into a fresh directory per op."""

    name = "sweep"
    warmup = SweepOp("fig1", 1e12, None, 5.0, 40, None)

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.eta = cli.ExperimentConfig().eta

    def prepare(self, op: SweepOp):
        opdir = tempfile.mkdtemp(dir=self.workdir)
        out = opdir if op.command == "fig1" else os.path.join(opdir, f"{op.command}.csv")
        argv = op.argv(out)
        stderr = io.StringIO()

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                stderr
            ):
                code = cli.main(argv)
            return code, stderr.getvalue(), opdir

        return call

    def check(self, op: SweepOp, result, error) -> Verdict:
        if error is not None:
            return _raised(error)
        code, stderr, opdir = result
        try:
            csv_bytes = sum(
                os.path.getsize(os.path.join(opdir, f)) for f in os.listdir(opdir)
            )
            if code == 3:
                # numerical failure: the quadrature limit the workload crosses
                reason = re.sub(r"at t = \S+ s: ", "", stderr.strip())[:100]
                return Verdict(ok=False, failure=f"exit 3: {reason}", csv_bytes=csv_bytes)
            if code != 0:
                return _fail(f"exit {code}: {stderr.strip()[:200]}")
            problem = self._check_files(op, opdir)
        except (OSError, ValueError) as exc:
            problem = f"unreadable output: {exc}"
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        if problem:
            return _fail(problem)
        return Verdict(ok=True, csv_bytes=csv_bytes)

    def _table(self, path: str, op: SweepOp) -> np.ndarray:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] != op.points:
            raise ValueError(f"{path}: {table.shape[0]} rows, expected {op.points}")
        return table

    def _check_files(self, op: SweepOp, opdir: str) -> str | None:
        if op.command == "gfactor":
            table = self._table(os.path.join(opdir, "gfactor.csv"), op)
            if op.beta is None:
                t, g = table[:, 0], table[:, 2]
                expect = 0.5 * self.eta * np.log1p((op.omega_c * t) ** 2)
                gap = np.abs(g - expect) - G_CLOSED_FORM_RTOL * expect
                if (gap > 0.0).any():
                    return f"gfactor: G off the closed form at t = {t[gap.argmax()]:.3e} s"
        elif op.command == "evolve":
            table = self._table(os.path.join(opdir, "evolve.csv"), op)
            flat = table[:, 2::2] + 1j * table[:, 3::2]
            rho = flat.reshape(-1, 4, 4)
            trace_gap = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max()
            defect = np.abs(rho - rho.conj().transpose(0, 2, 1)).max()
            if trace_gap > TRACE_TOL or defect > HERMITICITY_TOL:
                return f"evolve: trace gap {trace_gap:.2e}, Hermiticity defect {defect:.2e}"
        else:
            for idx in (1, 2, 3):
                table = self._table(os.path.join(opdir, f"fig1_alpha{idx}.csv"), op)
                t, c, ref = table[:, 0], table[:, 6], table[:, 7]
                equal = np.full(t.shape, idx == 1) | (t == 0.0)
                bad = np.where(equal, np.abs(c - ref) > CONCURRENCE_MATCH_TOL, c > ref)
                if bad.any():
                    k = int(bad.argmax())
                    return (
                        f"fig1 alpha {idx}: concurrence {c[k]!r} vs reference "
                        f"{ref[k]!r} at t = {t[k]:.3e} s"
                    )
        return None


class BlochScan:
    """``channel.max_decoherence_numeric`` over a Bloch-sphere grid."""

    name = "bloch_scan"
    warmup = BlochOp(1e10, 0.1, 1e-12, 8)

    def __init__(self, workdir: str):
        pass

    def prepare(self, op: BlochOp):
        params = QubitParams(op.e_j)
        return lambda: channel.max_decoherence_numeric(params, op.g, op.t, op.grid)

    def check(self, op: BlochOp, result, error) -> Verdict:
        if error is not None:
            return _raised(error)
        bound = max_decoherence_analytic(op.g)
        if not 0.0 <= result <= bound + BLOCH_SLACK:
            return _fail(f"bloch_scan: maximum {result!r} above analytic {bound!r}")
        return Verdict(ok=True)


class Oracle:
    """``split_deviation`` and ``channel_discrepancy`` on the halving grid."""

    name = "oracle"
    # largest dimension the generator draws, so the timed ops start warm
    warmup = OracleOp(1e10, ((1e11, 1e10, 8), (1.3e11, 1e10, 8)), None, 3e-13, 4)

    def __init__(self, workdir: str):
        pass

    def prepare(self, op: OracleOp):
        def call():
            system = OracleSystem(op.e_j, tuple(FockMode(*m) for m in op.modes))
            temp = Temperature.zero() if op.beta is None else Temperature.finite(op.beta)
            times = [op.t_base / 2.0**k for k in range(3)]
            deviations = {
                t: oracle.split_deviation(system, temp, t, op.samples, ORACLE_SAMPLE_SEED)
                for t in times + [times[-1] / 2.0]
            }
            gaps = {
                t: oracle.channel_discrepancy(system, temp, t, op.samples, ORACLE_SAMPLE_SEED)
                for t in times
            }
            return deviations, gaps

        return call

    def check(self, op: OracleOp, result, error) -> Verdict:
        """The thresholds of ``cli.run_oracle_check``, for one or two modes."""
        if error is not None:
            return _raised(error)
        deviations, gaps = result
        short_time = 0.1 / max(omega for omega, _, _ in op.modes)
        lo, hi = cli.RATIO_WINDOW
        for t, gap in gaps.items():
            if t > short_time:
                continue
            if gap > cli.CHANNEL_GAP_LIMIT:
                return _fail(f"oracle: channel gap {gap:.3e} at t = {t:.3e} s")
            dev, half_dev = deviations[t], deviations[t / 2.0]
            if dev > cli.RATIO_FLOOR:
                ratio = dev / half_dev if half_dev > 0.0 else float("nan")
                if not lo <= ratio <= hi:
                    return _fail(f"oracle: halving ratio {ratio:.2f} at t = {t:.3e} s")
        return Verdict(ok=True)


WORKLOADS = {cls.name: cls for cls in (Sweep, BlochScan, Oracle)}
