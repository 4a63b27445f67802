"""Spans and counters recorded around the package's public functions.

``Tracer.installed()`` wraps each function in ``TARGETS`` and rebinds the
wrapper in every ``qubit_dephasing`` module namespace that holds the
original (``cli.g_ohmic`` as well as ``bath.g_ohmic``), so calls made
inside the package are seen too. Nothing in the package changes; leaving
the ``with`` block restores the originals.

Spans (name, start, end, parent, op id) stay in memory in flat arrays and
are written once, by ``save``, when the run ends. Self time is derived
from them: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "qubit_dephasing"

# (module, function, span name). Both state validators share one name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "emit_csv", "cli.emit_csv"),
    ("bath", "g_ohmic", "bath.g_ohmic"),
    ("bath", "g_discrete", "bath.g_discrete"),
    ("qmath", "adaptive_quadrature", "qmath.adaptive_quadrature"),
    ("qmath", "matrix_exponential", "qmath.matrix_exponential"),
    ("channel", "evolve_pair", "channel.evolve_pair"),
    ("channel", "evolve_single", "channel.evolve_single"),
    ("channel", "max_decoherence_numeric", "channel.max_decoherence_numeric"),
    ("channel", "check_qubit_state", "channel.state_checks"),
    ("channel", "check_pair_state", "channel.state_checks"),
    ("entanglement", "concurrence", "entanglement.concurrence"),
    ("oracle", "split_evolve", "oracle.split_evolve"),
    ("oracle", "exact_evolve", "oracle.exact_evolve"),
    ("oracle", "thermal_bath_state", "oracle.thermal_bath_state"),
)

# Span names whose calls, total and self time are reported.
TIMED_SPANS = (
    "bath.g_ohmic",
    "qmath.adaptive_quadrature",
    "channel.evolve_pair",
    "entanglement.concurrence",
    "channel.state_checks",
    "channel.evolve_single",
    "channel.max_decoherence_numeric",
    "oracle.split_evolve",
    "oracle.exact_evolve",
    "qmath.matrix_exponential",
    "bath.g_discrete",
    "cli.main",
    "cli.run_experiment",
    "cli.emit_csv",
)


class Tracer:
    """Spans, per-layer counters and distinct-argument sets of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self.n3_sum = 0  # sum of dim**3 over matrix_exponential calls
        self.distinct: dict[str, set] = {"bath.g_ohmic": set(), "oracle.propagators": set()}
        self.current_op = -1
        self._integrand_evals = [0]
        self._stack: list[int] = []
        self._hooks = {
            "bath.g_ohmic": self._note_g_ohmic,
            "qmath.adaptive_quadrature": self._count_integrand,
            "qmath.matrix_exponential": self._note_exponential,
            "oracle.split_evolve": self._note_propagator("split"),
            "oracle.exact_evolve": self._note_propagator("exact"),
        }

    # -- counters taken from the call arguments -------------------------------

    def _note_g_ohmic(self, bound):
        a = bound.arguments
        self.distinct["bath.g_ohmic"].add((a["bath"], a["temp"], a["t"]))

    def _count_integrand(self, bound):
        f = bound.arguments["f"]
        tally = self._integrand_evals

        def counted(x):
            tally[0] += 1
            return f(x)

        bound.arguments["f"] = counted

    def _note_exponential(self, bound):
        dim = np.shape(bound.arguments["m"])[0]
        self.n3_sum += dim**3

    def _note_propagator(self, kind):
        def note(bound):
            a = bound.arguments
            self.distinct["oracle.propagators"].add((a["sys"], a["t"], kind))

        return note

    # -- spans ------------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._ids[span_name]
        hook = self._hooks.get(span_name)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(bound)
                args, kwargs = bound.args, bound.kwargs
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(span_name, type(exc).__name__)] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        undo = []
        try:
            for module_name, attr, span_name in TARGETS:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                wrapped = self._wrap(span_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            undo.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    # -- results ----------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return name, duration, duration - child_time

    @property
    def integrand_evals(self) -> int:
        return self._integrand_evals[0]

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """``{span name: (calls, total seconds, self seconds)}``."""
        name, duration, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(own[i]))
            for i, n in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
