"""Outside-in tracer: spans around the public functions of the designbounds
modules, recorded by wrappers that the benchmark installs from outside the
program.

A wrapper replaces a function in every module namespace that holds it
(``from .levenshtein import quadrature_rule`` copies the binding into
``bounds`` and ``innerprod``), and a method on its class. Every thread keeps
its own span stack, because sweep points run on the cli thread pool, where
a profiler of the calling thread sees none of the work. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import Counter, defaultdict

from designbounds.errors import InfeasibleRange, RangeError

# module -> traced names; "Class.method" is wrapped on the class
TRACED = {
    "orthopoly": ["jacobi_zeros", "weight_rule", "gegenbauer_expand", "gegenbauer_derivative",
                  "Poly.__call__"],
    "levenshtein": ["solve_cardinality", "interval", "quadrature_rule"],
    "hermite": ["interpolate", "verify_one_sided"],
    "potentials": ["Potential.eval", "Potential.derivative"],
    "innerprod": ["best_range"],
    "bounds": ["ulb", "improved_even_lower", "lower_2design", "upper_2design", "upper_cubic",
               "BoundReport.verify"],
    "codes": ["energy", "strength"],
    "jsonio": ["dumps"],
}
BOUND_METHODS = {f"bounds.{name}" for name in
                 ("ulb", "improved_even_lower", "lower_2design", "upper_2design", "upper_cubic")}
# the task each sweep point runs on the cli thread pool; its wall time minus
# its thread CPU time is time spent waiting for the interpreter lock or a CPU
POOL_TASK = "_sweep_one"
# recursive; only the outermost call is a span
OUTERMOST_ONLY = {"jsonio.dumps"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, thread, name, parent, start, dur, self, cpu, note)
        self.op = -1
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every traced name, and the sweep pool task, in place."""
        for module, names in TRACED.items():
            for name in names:
                self._wrap(module, name)
        self._wrap("cli", POOL_TASK)

    def _wrap(self, module: str, name: str) -> None:
        mod = sys.modules[f"designbounds.{module}"]
        span_name = f"{module}.{name}"
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, self._traced(span_name, getattr(cls, attr)))
            return
        original = getattr(mod, name)
        traced = self._traced(span_name, original)
        for modname, other in list(sys.modules.items()):
            if modname.startswith("designbounds"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)

    def _traced(self, name: str, fn):
        tracer = self
        note_of = _NOTES.get(name)
        outermost_only = name in OUTERMOST_ONLY
        timed_cpu = name == f"cli.{POOL_TASK}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if outermost_only and any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            note = None
            cpu0 = time.thread_time() if timed_cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, result)
                return result
            except (RangeError, InfeasibleRange):
                note = "raised"
                raise
            except Exception:
                note = "error"
                raise
            finally:
                dur = time.perf_counter() - start
                cpu = time.thread_time() - cpu0 if timed_cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((tracer.op, threading.get_ident(), name, parent, start, dur,
                                     dur - frame[1], cpu, note))

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time of every traced name, plus the ratios
        and waits named in BENCHMARK.json; a ratio with no base reads 0."""
        calls, self_s = Counter(), defaultdict(float)
        notes = defaultdict(Counter)
        triples = set()
        wait_s = 0.0
        for _, _, name, parent, _, dur, self_dur, cpu, note in self.spans:
            calls[name] += 1
            self_s[name] += self_dur
            if name == f"cli.{POOL_TASK}":
                wait_s += dur - cpu
            elif name == "levenshtein.quadrature_rule":
                triples.add(note)
            elif name in BOUND_METHODS and parent not in BOUND_METHODS:
                notes["bounds"][note] += 1
            elif note is not None:
                notes[name][note] += 1
        ratio = lambda num, den: num / den if den else 0.0
        out = {}
        for module, names in TRACED.items():
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = (calls[key] / ops, "count/op")
                out[f"{key}.self_ms"] = (1000.0 * self_s[key] / ops, "ms/op")
        qr_calls = calls["levenshtein.quadrature_rule"]
        out["levenshtein.quadrature_rule.distinct_ratio"] = (ratio(len(triples), qr_calls), "ratio")
        passes = notes["hermite.verify_one_sided"]
        out["hermite.verify_one_sided.pass_ratio"] = (
            ratio(passes[True], passes[True] + passes[False]), "ratio")
        outcomes = notes["bounds"]
        out["bounds.raised"] = (outcomes["raised"] / ops, "count/op")
        out["bounds.accept_ratio"] = (ratio(outcomes["accepted"], sum(outcomes.values())), "ratio")
        out["cli.sweep.wait_ms"] = (1000.0 * wait_s / ops, "ms/op")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["op", "thread", "name", "parent", "start_s", "dur_s", "self_s", "cpu_s", "note"]
        with gzip.open(path, "wt") as f:
            f.write(json.dumps(fields) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, default=str) + "\n")


def _bound_note(args, report) -> str:
    return "accepted" if report.accepted else "rejected"


_NOTES = {
    "levenshtein.quadrature_rule": lambda args, rule: tuple(args[:3]),
    "hermite.verify_one_sided": lambda args, margin: margin.passes,
    **{name: _bound_note for name in BOUND_METHODS},
}
