"""Layer spans recorded from outside the program.

The tracer rebinds every motbound module attribute that holds one of the
layer functions below to a wrapper, so a call resolved at call time (for
example ``mot.bound`` calling ``solve``, which ``mot`` imported by name)
passes through the wrapper.  Nothing is installed unless a traced run asks
for it.  Spans (name, start, end, parent span, operation id) are kept in
compact arrays and written once, when the benchmark ends; per-function self
time, call counts and layer counters are summed as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# layer -> functions, named by the module that defines them
LAYERS = {
    "lp": ("motbound.lp", ("solve",)),
    "mot": ("motbound.mot", ("bound", "decompose_and_solve", "extract_hedge", "verification_grids",
                             "strike_sweep", "random_feasible_coupling")),
    "hedge": ("motbound.hedge", ("verify", "slackness", "price", "check_arbitrage", "hedge_to_json")),
    "payoff": ("motbound.payoff", ("tabulate", "evaluate", "evaluate_last_axis", "last_coord_kinks")),
    "envelope": ("motbound.envelope", ("convex_envelope", "dual_value", "evaluate_dual", "improve_u2")),
    "measures": ("motbound.measures", ("discretize", "check_convex_order", "detect_barriers",
                                       "counterexample_marginals")),
    "cli": ("motbound.cli", ("main",)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.paused = False
        self._stack: list[list] = []      # [span index, child seconds]
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates (spans already recorded are kept)."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima: dict[str, float] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "motbound" or name.startswith("motbound."))]
        for layer, (modname, funcs) in LAYERS.items():
            home = sys.modules[modname]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def pause(self):
        """Calls made by the benchmark's own checks are not spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            self.span_start.append(t0)
            self.span_end.append(t0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.span_end[index] = t1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if not ok:
                    self.counters[f"{name}.failures"] += 1
            if after is not None:
                after(self, result)
            return result

        return functools.wraps(fn)(traced)

    def write(self, path: Path) -> int:
        """Write every span recorded so far; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.asarray(self.names), name=np.asarray(self.span_name),
                     start=np.asarray(self.span_start), end=np.asarray(self.span_end),
                     parent=np.asarray(self.span_parent), op=np.asarray(self.span_op))
        return len(self.span_start)

    # -- metrics ----------------------------------------------------------------

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, -np.inf), float(value))

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def _lp_before(tracer: Tracer, args, kwargs) -> None:
    lp = args[0] if args else kwargs["lp"]
    for key, size in (("lp.rows", lp.n_rows), ("lp.cols", lp.n_cols), ("lp.nnz", lp.vals.size)):
        tracer.note_max(key, size)


def _lp_after(tracer: Tracer, sol) -> None:
    tracer.counters["lp.pivots"] += sol.iterations


def _bound_after(tracer: Tracer, res) -> None:
    tracer.counters["mot.bounds"] += 1
    if res.diagnostics.extras.get("solve_attempts") == 1:
        tracer.counters["mot.first_dual_ok"] += 1


def _verify_after(tracer: Tracer, report) -> None:
    tracer.counters["hedge.verify_cells"] += report.checked_cells
    tracer.note_max("hedge.max_violation", report.max_violation)


def _tabulate_before(tracer: Tracer, args, kwargs) -> None:
    grids = args[1] if len(args) > 1 else kwargs["grids"]
    tracer.counters["payoff.tabulate_cells"] += float(np.prod([len(g) for g in grids]))


def _envelope_before(tracer: Tracer, args, kwargs) -> None:
    xs = args[0] if args else kwargs["xs"]
    tracer.counters["envelope.convex_envelope_points"] += len(xs)


_BEFORE = {"lp.solve": _lp_before, "payoff.tabulate": _tabulate_before,
           "envelope.convex_envelope": _envelope_before}
_AFTER = {"lp.solve": _lp_after, "mot.bound": _bound_after, "hedge.verify": _verify_after}
