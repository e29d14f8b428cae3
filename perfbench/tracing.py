"""Spans around coxaut's layer boundaries, installed from outside the package.

Modules bind functions by name (``from .words import reduce_word``), so a
wrapper replaces every module attribute in the package that refers to the
original function.  Each call becomes a span (name, start, end, parent)
kept in flat arrays; a span's self time is its duration minus the time of
its direct child spans.  Counts are read from return values, and guard
trips from the ``LimitExceeded`` a call raises.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped as spans; the span is named module.function.
SPANS = {
    "cli": ("main",),
    "system": ("parse_system", "is_flexible", "enumerate_diagram_automorphisms"),
    "words": ("reduce_word", "multiply", "m_closure", "m_class"),
    "ball": ("build_ball", "distance", "count_paths"),
    "cycles": ("enumerate_embedded_cycles", "is_essential", "relator_cycles", "verify_essential_characterization"),
    "automorphisms": (
        "identity_stabilizer_census",
        "left_mult",
        "diagram_aut",
        "psi_phi",
        "psi_n",
        "verify_ball_automorphism",
        "local_permutation_field",
        "decompose",
        "coupling_violations",
    ),
    "checks": ("run_system_checks", "commutation_violations"),
}
# Constructors of ball maps, reported as one sum so that merging them does not move the metric.
MAP_BUILD = (
    "automorphisms.left_mult",
    "automorphisms.diagram_aut",
    "automorphisms.psi_phi",
    "automorphisms.psi_n",
    "automorphisms.FactoredAutomorphism.to_ball",
)
# Per-layer metrics reported as a span's summed self time and as its call count.
SELF_TIME = {
    "checks.commutation_violations.self_s": ("checks.commutation_violations",),
    "checks.run_system_checks.self_s": ("checks.run_system_checks",),
    "automorphisms.identity_stabilizer_census.self_s": ("automorphisms.identity_stabilizer_census",),
    "automorphisms.map_build.self_s": MAP_BUILD,
    "automorphisms.verify_ball_automorphism.self_s": ("automorphisms.verify_ball_automorphism",),
    "automorphisms.local_permutation_field.self_s": ("automorphisms.local_permutation_field",),
    "automorphisms.decompose.self_s": ("automorphisms.decompose",),
    "automorphisms.coupling_violations.self_s": ("automorphisms.coupling_violations",),
    "words.reduce_word.self_s": ("words.reduce_word",),
    "words.m_closure.self_s": ("words.m_closure",),
    "words.m_class.self_s": ("words.m_class",),
    "ball.build_ball.self_s": ("ball.build_ball",),
    "ball.distance.self_s": ("ball.distance",),
    "ball.count_paths.self_s": ("ball.count_paths",),
    "cycles.enumerate_embedded_cycles.self_s": ("cycles.enumerate_embedded_cycles",),
    "cycles.is_essential.self_s": ("cycles.is_essential",),
    "cycles.relator_cycles.self_s": ("cycles.relator_cycles",),
    "cycles.verify_essential_characterization.self_s": ("cycles.verify_essential_characterization",),
    "system.parse_system.self_s": ("system.parse_system",),
    "system.is_flexible.self_s": ("system.is_flexible",),
    "cli.main.self_s": ("cli.main",),
}
CALLS = {
    "automorphisms.verify_ball_automorphism.calls": "automorphisms.verify_ball_automorphism",
    "words.reduce_word.calls": "words.reduce_word",
    "words.multiply.calls": "words.multiply",
    "words.m_closure.calls": "words.m_closure",
    "ball.distance.calls": "ball.distance",
    "ball.count_paths.calls": "ball.count_paths",
    "cycles.is_essential.calls": "cycles.is_essential",
    "system.enumerate_diagram_automorphisms.calls": "system.enumerate_diagram_automorphisms",
}


class Tracer:
    """Collects spans, counters and the verify check intervals of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        # verify checks are timed as the interval between successive
        # CheckResult constructions, starting after the ball is built
        self._mark = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_return=None, on_limit=None, on_enter=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        limit_exceeded = sys.modules["coxaut.words"].LimitExceeded
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(index)
            if on_enter is not None:
                on_enter()
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except limit_exceeded:
                if on_limit is not None:
                    on_limit(args, kwargs)
                raise
            finally:
                self.span_end[index] = clock()
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count(self, name, amount=1):
        self.counters[name] += amount

    def _set_mark(self, *_):
        self._mark = time.perf_counter()

    def install(self) -> None:
        """Wrap every binding of the traced functions across the coxaut package."""
        import coxaut.automorphisms
        import coxaut.checks
        import coxaut.cli

        count = self._count
        default_nodes = coxaut.automorphisms.DEFAULT_MAX_NODES
        hooks = {
            "words.m_closure": dict(
                on_return=lambda r: count("words.m_closure.states", len(r)),
                on_limit=lambda a, k: count("words.guard_trips"),
            ),
            "ball.build_ball": dict(
                on_return=lambda r: (count("ball.vertices", r.size), count("ball.edges", len(r.edges)), self._set_mark())
            ),
            "cycles.enumerate_embedded_cycles": dict(on_return=lambda r: count("cycles.cycles_examined", len(r))),
            "automorphisms.identity_stabilizer_census": dict(
                on_return=lambda r: (
                    count("automorphisms.census.search_nodes", r.search_nodes),
                    count("automorphisms.census.classes", r.count),
                ),
                on_limit=lambda a, k: (
                    count("automorphisms.census.search_nodes", k.get("max_nodes", a[2] if len(a) > 2 else default_nodes)),
                    count("automorphisms.census.guard_trips"),
                ),
            ),
            "checks.run_system_checks": dict(on_enter=self._set_mark),
        }
        originals = {}
        for module, functions in SPANS.items():
            mod = sys.modules[f"coxaut.{module}"]
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(name, fn, **hooks.get(name, {})))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "coxaut" and not mod_name.startswith("coxaut."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])

        factored = coxaut.automorphisms.FactoredAutomorphism
        self._restore.append((factored, "to_ball", factored.to_ball))
        factored.to_ball = self._wrap("automorphisms.FactoredAutomorphism.to_ball", factored.to_ball)

        check_result = coxaut.checks.CheckResult

        def timed_check_result(name, status, detail):
            now = time.perf_counter()
            count(f"checks.{name}.s", now - self._mark)
            self._mark = now
            return check_result(name, status, detail)

        self._restore.append((coxaut.checks, "CheckResult", check_result))
        coxaut.checks.CheckResult = timed_check_result

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        n = len(self.span_start)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        totals: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += self.span_end[i] - self.span_start[i] - child_time[i]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer value this tracer can report, by metric name."""
        spans = self.self_times()
        metrics = dict(self.counters)
        for metric, names in SELF_TIME.items():
            metrics[metric] = sum(spans.get(name, (0, 0.0))[1] for name in names)
        for metric, name in CALLS.items():
            metrics[metric] = spans.get(name, (0, 0.0))[0]
        return metrics

    def write_spans(self, path) -> None:
        """Write the spans as columns; times are microseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start_us": [round((t - origin) * 1e6, 1) for t in self.span_start],
                    "end_us": [round((t - origin) * 1e6, 1) for t in self.span_end],
                },
                fh,
            )
