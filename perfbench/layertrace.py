"""Outside-in tracing of the ebsplines layers.

``Tracer.install()`` replaces every public function of the traced modules with
a timing wrapper, in every module namespace that holds a binding to it
(``from .x import y`` copies the binding, so rebinding only the defining
module would miss most calls).  ``BasisHandle.forward``/``inverse`` are
wrapped on the class and reported as ``spectral.forward``/``spectral.inverse``;
the module-level ``spectral.forward``/``inverse`` helpers only delegate to
them and are left alone so that no transform is counted twice.

Calls made while the tracer is paused (set-up, output checks) are passed
through unrecorded.  Spans are kept in memory as ``(name, op, start, end, parent)`` tuples and
written out by ``dump``; per-name calls, total and self time are accumulated
as the spans close.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("spectral", "selection", "gcv", "credible", "oracles", "simlab", "cli")

# Delegating aliases of the BasisHandle methods (see module docstring).
_SKIP = {("spectral", "forward"), ("spectral", "inverse")}

# Bytes per float64 of the Monte Carlo bank behind credible.radius.
_BANK_ITEM_BYTES = 8


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.op = -1
        self.paused = True  # calls made while paused are not recorded
        self.root_s = 0.0
        self._stack: list[list] = []  # [span index, child seconds]
        # credible.radius bookkeeping
        self.bank_keys: set[tuple[int, int, int]] = set()
        self.radius_first_calls = 0
        self.radius_first_call_s = 0.0
        self.radius_computed_bytes = 0
        self.peak_alloc_bytes = 0
        self.solve_boundary = 0

    # -- span bookkeeping ------------------------------------------------
    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return i

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stats = self.stats[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = {"credible.radius": self._after_radius,
                 "selection.solve_lambda": self._after_solve}.get(name)
        measure_alloc = name in ("credible.radius", "credible.sample_posterior")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            started_alloc = measure_alloc and not tracemalloc.is_tracing()
            if started_alloc:
                tracemalloc.start()
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (nid, self.op, t0, t1, parent)
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
                if started_alloc:
                    self.peak_alloc_bytes = max(self.peak_alloc_bytes,
                                                tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(fn, args, kwargs, result, dur)
            return result

        return wrapper

    def _after_radius(self, fn, args, kwargs, result, dur):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        spec = bound.arguments["spec"]
        n = bound.arguments["model"].n
        key = (n, spec.mc_draws, spec.seed)
        if key not in self.bank_keys:
            self.bank_keys.add(key)
            self.radius_first_calls += 1
            self.radius_first_call_s += dur
        self.radius_computed_bytes += spec.mc_draws * n * _BANK_ITEM_BYTES

    def _after_solve(self, fn, args, kwargs, result, dur):
        self.solve_boundary += bool(result.boundary)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        pkg = importlib.import_module("ebsplines")
        mods = {m: importlib.import_module(f"ebsplines.{m}") for m in LAYERS}
        namespaces = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or (layer, attr) in _SKIP):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapped)
        basis = mods["spectral"].BasisHandle
        for meth in ("forward", "inverse"):
            setattr(basis, meth, self._wrap(f"spectral.{meth}", basis.__dict__[meth]))

    # -- reporting -------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def table(self) -> dict:
        return {name: {"calls": c, "total_s": tot, "self_s": slf}
                for name, (c, tot, slf) in sorted(self.stats.items()) if c}

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metric values by their BENCHMARK.json names."""
        m = {}
        for name in ("gcv.gcv_criterion", "gcv.select_lambda_gcv",
                     "selection.solve_lambda", "selection.fit", "spectral.forward",
                     "spectral.inverse", "credible.radius", "oracles.oracle_lambda"):
            m[f"{name}.calls"] = self.calls(name)
            m[f"{name}.self_s"] = self.self_s(name)
        for name in ("selection.t_q", "selection.select_q",
                     "credible.sample_posterior", "simlab.run_study", "cli.main"):
            m[f"{name}.self_s"] = self.self_s(name)
        selects = self.calls("gcv.select_lambda_gcv")
        m["gcv.evals_per_select"] = (self.calls("gcv.gcv_criterion") / selects
                                     if selects else 0.0)
        m["selection.marginal_loglik.calls"] = self.calls("selection.marginal_loglik")
        solves = self.calls("selection.solve_lambda")
        m["selection.boundary_ratio"] = self.solve_boundary / solves if solves else 0.0
        m["credible.radius.first_calls"] = self.radius_first_calls
        m["credible.radius.first_call_s"] = self.radius_first_call_s
        m["credible.radius.computed_bytes"] = self.radius_computed_bytes
        m["credible.peak_alloc_mb"] = self.peak_alloc_bytes / 2**20
        m["trace.unattributed_s"] = max(wall_s - self.root_s, 0.0)
        return m

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans}, fh)
