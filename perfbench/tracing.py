"""Spans around the calls into each treesched layer, recorded from outside.

The tracer replaces a function by a timing wrapper in the namespace that
calls it (``treesched.cli.greedy_optimize``, ``treesched.scheduler.project``,
...), so the program itself is untouched and the untraced run installs
nothing. Spans are kept in memory and summarized after the run: a span's
self time is its duration minus the durations of its direct child spans.
``spd_inverse`` is called millions of times, so it gets a counter instead
of a span: each call adds the number of matrices it inverts to the
innermost open span and to a global total.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter


def _arg(name):
    """Work extractor that reads one bound argument of the call."""

    def get(bound, result):
        return bound.arguments[name]

    return get


def _product(*names):
    def get(bound, result):
        out = 1
        for name in names:
            out *= bound.arguments[name]
        return out

    return get


def _result_len(attr=None):
    def get(bound, result):
        return len(getattr(result, attr) if attr else result)

    return get


def _outer_iterations(bound, result):
    return len(result.iterates) - 1


def _attempts(bound, result):
    return result.attempts


# (module, attribute, span name, work extractor). A module here is the
# namespace whose code makes the call; the benchmark's own calls go through
# the defining modules' attributes.
SPANS = [
    ("treesched.cli", "_experiment_trial", "cli.trial", None),
    ("treesched.cli", "_figure_paths", "cli.figure", None),
    ("treesched.cli", "random_instance", "testbed.random_instance", _attempts),
    ("treesched.cli", "greedy_optimize", "scheduler.greedy_optimize", _outer_iterations),
    ("treesched.cli", "decompose", "decompose.decompose", _result_len()),
    ("treesched.cli", "simulate_run", "protocol.simulate_run", _arg("rounds")),
    ("treesched.cli", "asymptotic_expected_trace", "riccati.asymptotic_expected_trace",
     _product("horizon", "trials")),
    ("treesched.cli", "expected_trace_curve", "riccati.expected_trace_curve",
     _product("steps", "trials")),
    ("treesched.cli", "sample_path", "riccati.sample_path", _arg("steps")),
    ("treesched.cli", "best_deterministic", "baseline.best_deterministic", _result_len("candidates")),
    ("treesched.cli", "bound_sequence", "lowerbound.bound_sequence", None),
    ("treesched.scheduler", "project", "polytope.project", None),
    ("treesched.scheduler", "L_infinity", "lowerbound.L_infinity", None),
    ("treesched.scheduler", "L_step", "lowerbound.L_step", None),
    ("treesched.baseline", "L_infinity", "lowerbound.L_infinity", None),
    ("treesched.testbed", "random_instance", "testbed.random_instance", _attempts),
    ("treesched.scheduler", "greedy_optimize", "scheduler.greedy_optimize", _outer_iterations),
    ("treesched.decompose", "decompose", "decompose.decompose", _result_len()),
    ("treesched.baseline", "best_deterministic", "baseline.best_deterministic", _result_len("candidates")),
    ("treesched.protocol", "simulate_run", "protocol.simulate_run", _arg("rounds")),
    ("treesched.riccati", "sample_path", "riccati.sample_path", _arg("steps")),
]

# Every namespace that calls spd_inverse; info_update looks it up in _linalg.
INVERSION_COUNTERS = [
    ("treesched._linalg", "spd_inverse"),
    ("treesched.riccati", "spd_inverse"),
    ("treesched.scheduler", "spd_inverse"),
]

MC_SPANS = ("riccati.asymptotic_expected_trace", "riccati.expected_trace_curve")


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work, inverted matrices]
        self.stack = []
        self.inverted = 0
        self._saved = []

    def _span_wrapper(self, fn, name, work):
        sig = inspect.signature(fn) if work is not None else None
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else -1, 0, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = work(bound, result)
            return result

        return wrapper

    def _counter_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(M, *args, **kwargs):
            count = M.size // (M.shape[-1] * M.shape[-2])
            self.inverted += count
            if stack:
                spans[stack[-1]][5] += count
            return fn(M, *args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, name, work in SPANS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._span_wrapper(original, name, work))
        for module, attr in INVERSION_COUNTERS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._counter_wrapper(original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def summary(self):
        """Per span name: calls, total seconds, self seconds, work, inversions."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "inverted": 0})
        for k, (name, start, end, _, work, inverted) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
            row["work"] += work
            row["inverted"] += inverted
        return out


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics the benchmark reports, from the traced set-up and pass."""
    s = tracer.summary()

    def get(name, key):
        return s[name][key] if name in s else 0

    mc_s = sum(get(n, "total_s") for n in MC_SPANS)
    mc_steps = sum(get(n, "work") for n in MC_SPANS)
    mc_inverted = sum(get(n, "inverted") for n in MC_SPANS)
    sp_s, sp_steps = get("riccati.sample_path", "total_s"), get("riccati.sample_path", "work")
    sim_s, rounds = get("protocol.simulate_run", "total_s"), get("protocol.simulate_run", "work")
    base_s, cands = get("baseline.best_deterministic", "total_s"), get("baseline.best_deterministic", "work")
    values = {
        "riccati.mc_s": (mc_s, "s"),
        "riccati.mc_path_steps": (mc_steps, "count"),
        "riccati.mc_path_steps_per_s": (_rate(mc_steps, mc_s), "steps/s"),
        "riccati.sample_path_s": (sp_s, "s"),
        "riccati.sample_path_steps_per_s": (_rate(sp_steps, sp_s), "steps/s"),
        "linalg.inverted_matrices": (tracer.inverted, "count"),
        "riccati.inversions_per_path_step": (mc_inverted / mc_steps if mc_steps else 0.0, "inv/step"),
        "protocol.simulate_run_s": (sim_s, "s"),
        "protocol.rounds_per_s": (_rate(rounds, sim_s), "rounds/s"),
        "scheduler.greedy_self_s": (get("scheduler.greedy_optimize", "self_s"), "s"),
        "scheduler.outer_iterations": (get("scheduler.greedy_optimize", "work"), "count"),
        "polytope.project_s": (get("polytope.project", "total_s"), "s"),
        "polytope.project_calls": (get("polytope.project", "calls"), "count"),
        "lowerbound.L_infinity_s": (get("lowerbound.L_infinity", "total_s"), "s"),
        "lowerbound.L_infinity_calls": (get("lowerbound.L_infinity", "calls"), "count"),
        "baseline.self_s": (get("baseline.best_deterministic", "self_s"), "s"),
        "baseline.candidates": (cands, "count"),
        "baseline.candidates_per_s": (_rate(cands, base_s), "cands/s"),
        "cli.figure_s": (get("cli.figure", "self_s"), "s"),
        "testbed.random_instance_s": (get("testbed.random_instance", "total_s"), "s"),
        "testbed.attempts": (get("testbed.random_instance", "work"), "count"),
        "decompose.decompose_s": (get("decompose.decompose", "total_s"), "s"),
        "decompose.support_trees": (get("decompose.decompose", "work"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
