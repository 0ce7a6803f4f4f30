"""Outside-in layer tracing for the benchmark.

Every public function of the traced package modules is replaced, for the
duration of a traced run, by a wrapper that records one span per call:
``(span_id, parent_id, name, start, end)``.  The package binds names with
``from .x import y``, so a function is replaced on every module that holds a
reference to it, not only on the module that defines it; otherwise calls from
``vorticity`` into ``spectral.product_coefficients`` would go unseen.

Spans stay in memory while the run is timed and are written out once it ends.
Self time of a span is its duration minus the time its direct children cover.
Counts that the program already returns (Picard iterations, series orders,
checkpoint sizes) are taken from call arguments and return values, so nothing
under ``src/`` is edited.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from collections import defaultdict

TRACED_MODULES = ("spectral", "norms", "vorticity", "evolution", "certify", "cli")


class Tracer:
    """In-memory span recorder plus the per-call observations the metrics need."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.observations: dict[str, list] = defaultdict(list)
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of TRACED_MODULES on every package module."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(val)] = self._wrap(name, val, _OBSERVERS.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")

    # -- aggregation -------------------------------------------------------

    def layer_table(self) -> dict:
        """name -> {calls, self_s, durations} from the recorded spans."""
        child_cover = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_cover[parent] += t1 - t0
        table: dict = {}
        for sid, _, name, t0, t1 in self.spans:
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            dur = t1 - t0
            row["calls"] += 1
            row["self_s"] += dur - child_cover[sid]
            row["durations"].append(dur)
        return table


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    if len(args) > index:
        return args[index]
    return default


def _observe_solve(tracer, args, kwargs, pair):
    tracer.observations["picard_iterations"].append(pair.iterations)
    if pair.contraction_ratio is not None:
        tracer.observations["contraction_ratio"].append(pair.contraction_ratio)


def _observe_target_series(tracer, args, kwargs, out):
    tracer.observations["series_n_max"].append(_arg(args, kwargs, 4, "n_max"))


def _observe_omega2(tracer, args, kwargs, out):
    method = _arg(args, kwargs, 3, "method", "series")
    tracer.observations["omega2_method"].append(method)
    n_max = _arg(args, kwargs, 4, "n_max")
    if n_max is not None:
        tracer.observations["series_n_max"].append(n_max)


def _observe_checkpoint(tracer, args, kwargs, out):
    tracer.observations["checkpoint_bytes"].append(os.path.getsize(_arg(args, kwargs, 0, "path")))


_OBSERVERS = {
    "vorticity.solve_vorticity": _observe_solve,
    "vorticity.target_series_apply": _observe_target_series,
    "vorticity.omega2_of_omega1": _observe_omega2,
    "evolution.save_checkpoint": _observe_checkpoint,
}
