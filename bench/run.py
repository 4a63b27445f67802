"""Benchmark of the qubit-dephasing package.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``opgen.py`` for the inputs and README.md for why):

    sweep       cli.main([...]) for gfactor, evolve and fig1, CSV to disk
    bloch_scan  channel.max_decoherence_numeric over a Bloch-sphere grid
    oracle      oracle.split_deviation and channel_discrepancy per system

Each run is one closed loop with a single client in this process, over a
list of ops fixed by the seed and ``--seconds``, so that one seed always
does the same work and fails the same ops. With ``--trace 0`` it times
each op, scales the times to a reference host speed (``hostspeed.py``),
and reports the end-to-end metrics; the list is sized so that this takes
about ``--seconds`` on the machine named in README.md. With
``--trace 1`` it runs each op of a fixed list twice, untraced and traced,
and reports per-layer metrics, so every counter repeats exactly on one
seed. Every op's output is checked. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os
import sys

# BLAS runs on one thread; set before numpy is first imported. On two
# shared cores a second BLAS thread made a 96 x 96 eigh three times slower
# at the median and up to 200 times slower at the tail.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import tempfile
from collections import Counter
from time import perf_counter

import opgen
from hostspeed import HostSpeed
from tracing import TIMED_SPANS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Mean seconds of one op, measured on the machine named in README.md, and
# seconds of set-up timing per run: a run sizes its op list from them so
# that it takes about --seconds there, and always does the same work.
NOMINAL_OP_S = {"sweep": 0.22, "bloch_scan": 0.25, "oracle": 0.16}
NOMINAL_SETUP_S = 4.0
# Fresh interpreters timed for setup_s before and again after the ops, so
# the median spans the whole run; one more untimed spawn warms the caches.
SETUP_REPEATS = 3
# Fresh interpreters run under -X importtime per traced run.
IMPORTTIME_REPEATS = 3
# Latency percentile reported beside the median. A run must complete at
# least 10 / (1 - p) ops for ten samples to lie beyond it. Runs have room
# for the 90th, but on sweep it sits among ops near the quadrature edge,
# whose cost jumps with small changes of the horizon, and its quartile
# spread over seeds was 0.20 to 0.32; the 80th spread 0.05 to 0.09.
TAIL_PERCENTILE = 80
# Ops of a traced run; each runs once untraced and once traced.
TRACE_OPS = {"sweep": 48, "bloch_scan": 32, "oracle": 48}

IMPORT_MODULES = (
    "qubit_dephasing",
    "qubit_dephasing.errors",
    "qubit_dephasing.qmath",
    "qubit_dephasing.bath",
    "qubit_dephasing.channel",
    "qubit_dephasing.entanglement",
    "qubit_dephasing.oracle",
    "qubit_dephasing.cli",
    "scipy.integrate",
    "scipy.linalg",
    "scipy.special",
)

READY = "ready"
IMPORT_SCRIPT = f"import qubit_dephasing.cli; print({READY!r}, flush=True)"


class BenchError(Exception):
    """A child interpreter used for set-up timing failed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def time_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI module is imported."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", IMPORT_SCRIPT],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.close()
        if child.wait() != 0 or line.strip() != READY:
            raise BenchError("a fresh interpreter could not import qubit_dephasing.cli")
        samples.append(elapsed)
    return samples


def import_times(repeats: int) -> dict[str, float]:
    """Median cumulative import seconds per module, from ``-X importtime``."""
    runs: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_SCRIPT],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise BenchError("python -X importtime failed")
        seen = {}
        for line in child.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1]) * 1e-6
        for module in IMPORT_MODULES:
            runs[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in runs.items()}


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_ops(workload, ops, host: HostSpeed | None = None):
    """Run ops in a closed loop; with ``host``, sample it before each op.

    Returns ``(op, latency seconds, verdict)`` per op.
    """
    done = []
    for op in ops:
        if host:
            host.sample()
        call = workload.prepare(op)
        result = error = None
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, never fatal
            error = exc
        latency = perf_counter() - t0
        done.append((op, latency, workload.check(op, result, error)))
    return done


def failure_summary(done) -> list[str]:
    kinds = Counter(v.failure for _, _, v in done if v.failure)
    return [f"  {n} x {reason}" for reason, n in kinds.most_common()]


def machine_info() -> str:
    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )


def op_count(workload: str, seconds: float) -> int:
    """Ops in a timed run, a whole number of the generator's blocks."""
    block = opgen.BLOCK[workload]
    ops = (seconds - NOMINAL_SETUP_S) / NOMINAL_OP_S[workload]
    return block * max(1, round(ops / block))


def end_to_end(workload, args) -> tuple[dict, list, dict]:
    ops = opgen.take(args.workload, args.seed, op_count(args.workload, args.seconds))
    host = HostSpeed(args.workload)
    time_setup(1)
    run_ops(workload, [workload.warmup], host)
    setup = time_setup(SETUP_REPEATS)
    first = len(host.samples)
    done = run_ops(workload, ops, host)
    setup += time_setup(SETUP_REPEATS)

    # Op times are scaled to reference speed by the samples around them.
    # Set-up is not: a child interpreter spends much of it reading files,
    # which the kernel's speed does not track.
    scaled = [lat * host.scale(first + j) for j, (_, lat, _) in enumerate(done)]
    latencies = sorted(lat for lat, (_, _, v) in zip(scaled, done) if v.ok)
    busy = sum(scaled)
    items = sum(op.items for op, _, v in done if v.ok)
    tail = f"op_p{TAIL_PERCENTILE}_s"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (percentile(latencies, 50) if latencies else 0.0, "s"),
        tail: (percentile(latencies, TAIL_PERCENTILE) if latencies else 0.0, "s"),
        "items_per_s": (items / busy if busy > 0.0 else 0.0, "1/s"),
        "ok_frac": (len(latencies) / len(done), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = sorted(lat for _, lat, v in done if v.ok)
    raw_busy = sum(lat for _, lat, _ in done)
    beyond = sum(lat > metrics[tail][0] for lat in latencies)
    notes = {} if latencies else {"correct": "no op completed"}
    notes |= {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_s": f"n = {len(latencies)} completed ops; "
        f"{percentile(raw, 50) if raw else 0.0:.4g} s as measured",
        tail: f"{beyond} beyond; {percentile(raw, TAIL_PERCENTILE) if raw else 0.0:.4g} s as measured",
        "items_per_s": f"{items} items over {busy:.3f} busy s; "
        f"{items / raw_busy if raw_busy else 0.0:.6g} as measured; "
        f"host at {host.speed():.3f} of reference speed",
        "ok_frac": f"{len(latencies)} of {len(done)} ops completed",
    }
    return metrics, done, notes


def layer_metrics(tracer, done) -> dict:
    """Per-layer metrics of one traced pass; ``done`` is what ``run_ops`` returned."""
    stats = tracer.layer_stats()
    metrics = {}
    for span in TIMED_SPANS:
        calls, total, own = stats.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.total_s"] = (total, "s")
        metrics[f"{span}.self_s"] = (own, "s")

    def calls(span):
        return stats.get(span, (0,))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    g_failed = sum(n for (span, _), n in tracer.errors.items() if span == "bath.g_ohmic")
    builds = calls("oracle.split_evolve") + calls("oracle.exact_evolve")
    evolved = calls("channel.evolve_pair") + calls("channel.evolve_single")
    metrics.update(
        {
            "bath.g_ohmic.failed": (g_failed, "count"),
            "bath.g_ohmic.distinct_ratio": (
                ratio(len(tracer.distinct["bath.g_ohmic"]), calls("bath.g_ohmic")),
                "ratio",
            ),
            "qmath.adaptive_quadrature.integrand_evals": (tracer.integrand_evals, "count"),
            "channel.checks_per_state": (ratio(calls("channel.state_checks"), evolved), "ratio"),
            "oracle.thermal_bath_state.calls": (calls("oracle.thermal_bath_state"), "count"),
            "oracle.propagator_distinct_ratio": (
                ratio(len(tracer.distinct["oracle.propagators"]), builds),
                "ratio",
            ),
            "qmath.matrix_exponential.n3_sum": (tracer.n3_sum, "count"),
            "cli.csv_bytes": (sum(v.csv_bytes for _, _, v in done), "bytes"),
        }
    )
    return metrics


def per_layer(workload, args) -> tuple[dict, list, dict]:
    imports = import_times(IMPORTTIME_REPEATS)
    ops = opgen.take(args.workload, args.seed, TRACE_OPS[args.workload])
    run_ops(workload, [workload.warmup])
    # Each op runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed and first-run costs cancel in the
    # overhead.
    tracer = Tracer()
    plain, done = [], []
    for index, op in enumerate(ops):
        tracer.current_op = index
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                with tracer.installed():
                    done += run_ops(workload, [op])
            else:
                plain += run_ops(workload, [op])
    tracer.save(os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.npz"))

    metrics = layer_metrics(tracer, done)
    for module, seconds in imports.items():
        metrics[f"setup.import.{module}_s"] = (seconds, "s")
    busy_plain = sum(lat for _, lat, _ in plain)
    busy_traced = sum(lat for _, lat, _ in done)
    metrics["trace_overhead_frac"] = (busy_traced / busy_plain - 1.0, "ratio")

    g_errors = {kind: n for (span, kind), n in tracer.errors.items() if span == "bath.g_ohmic"}
    notes = {
        "trace_overhead_frac": f"traced {busy_traced:.3f} s vs plain {busy_plain:.3f} s "
        f"over the same {len(ops)} ops",
        "bath.g_ohmic.failed": f"by type {g_errors}",
    }
    # Every failed op must be the quadrature limit: a ToleranceNotMet in g_ohmic.
    failed_ops = sum(not v.ok for _, _, v in done)
    if failed_ops != g_errors.get("ToleranceNotMet", 0):
        notes["correct"] = f"{failed_ops} failed ops but g_ohmic raised {g_errors}"
    if any(v.unexpected for _, _, v in plain):
        notes["correct"] = "the untraced pass produced a wrong output or an unexpected error"
    return metrics, done, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "bloch_scan", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "qubit_dephasing", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qubit_dephasing

    if os.path.dirname(os.path.abspath(qubit_dephasing.__file__)) != os.path.join(
        SRC, "qubit_dephasing"
    ):
        print(f"error: imported {qubit_dephasing.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workload = WORKLOADS[args.workload](workdir)
            measure = per_layer if args.trace else end_to_end
            metrics, done, notes = measure(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(done)
    failed = sum(not v.ok for _, _, v in done)
    correct = "correct" not in notes and not any(v.unexpected for _, _, v in done)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine  {machine_info()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {value:>16.6g} {unit}{note}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print("\n".join(failure_summary(done)) or "  no failures")
    if "correct" in notes:
        print(f"  {notes['correct']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
