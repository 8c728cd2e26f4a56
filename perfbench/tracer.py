"""Per-layer tracing from outside the package.

For the length of a traced run, the tracer replaces the module attributes
through which one tnbs module calls into another (and the benchmark calls into
tnbs) with wrappers that record one span per call: layer name, start, end,
parent span and workload iteration. Python looks these names up at call time,
so nothing under ``src/`` changes. A layer's self time is the duration of its
spans minus the time their child spans cover.

A target that no longer exists (renamed or removed by a later change) is
skipped; a metric whose targets are all missing is reported as absent instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Counter name -> its value for one call, from the call's arguments and result.
COUNTERS = {
    "solver.design_rows.elems": lambda args, result: result.size,
    "solver.updates": lambda args, result: len(result[1].update_objectives),
    "solver.fallback_solves": lambda args, result: result[1].fallback_solves,
    "solver.sweeps": lambda args, result: result[1].sweeps_run,
    "bspline.basis_rows.points": lambda args, result: np.size(args[1]),
    "model.surface_rows.rows": lambda args, result: np.shape(args[1])[0],
}

# (layer, module, attribute path, counters). Several targets may feed a layer;
# a function imported into two modules is wrapped under each name.
TARGETS = [
    ("solver.design_rows", "tnbs.solver", "_kron_rows", ("solver.design_rows.elems",)),
    ("solver.folds", "tnbs.solver", "_fold_left", ()),
    ("solver.folds", "tnbs.solver", "_fold_right", ()),
    ("solver.penalty_accum", "tnbs.solver", "_accumulated_penalties", ()),
    ("solver.penalty_apply", "tnbs.solver", "_add_penalties", ()),
    ("solver.penalty_apply", "tnbs.solver", "_penalty_value", ()),
    ("solver.chol_solve", "tnbs.solver", "_cholesky_solve", ()),
    ("solver.fallback_lstsq", "tnbs.solver", "_penalty_root_blocks", ()),
    ("solver.fallback_lstsq", "numpy.linalg", "lstsq", ()),
    ("solver.fit", "tnbs.solver", "_fit_rows",
     ("solver.updates", "solver.fallback_solves", "solver.sweeps")),
    ("solver.fit", "tnbs.solver", "als_fit", ()),
    ("solver.fit", "tnbs.solver", "cross_validate_lambda", ()),
    ("solver.fit", "tnbs.cli", "als_fit", ()),
    ("solver.fit", "tnbs.cli", "cross_validate_lambda", ()),
    ("tensor.qr_shift", "tnbs.solver", "_split_core_right", ()),
    ("tensor.qr_shift", "tnbs.solver", "_split_core_left", ()),
    ("tensor.orthogonalize", "tnbs.solver", "orthogonalize_to_site", ()),
    ("tensor.tt_svd", "tnbs.synth", "tt_svd", ()),
    ("bspline.basis_rows", "tnbs.model", "basis_rows", ("bspline.basis_rows.points",)),
    ("bspline.basis_rows", "tnbs.solver", "basis_rows", ("bspline.basis_rows.points",)),
    ("model.surface_point", "tnbs.model", "TnbsModel._surface_point", ()),
    ("model.surface_rows", "tnbs.model", "TnbsModel._surface_rows", ("model.surface_rows.rows",)),
    ("model.simulate", "tnbs.model", "TnbsModel.simulate", ()),
    ("model.build_regressors", "tnbs.model", "build_regressors", ()),
    ("model.build_regressors", "tnbs.solver", "build_regressors", ()),
    ("model.io", "tnbs.model", "TnbsModel.save", ()),
    ("model.io", "tnbs.model", "TnbsModel.load", ()),
    ("synth.make_dataset", "tnbs.synth", "make_dataset", ()),
    ("synth.make_dataset", "tnbs.cli", "make_dataset", ()),
    ("synth.generate_output", "tnbs.synth", "generate_output", ()),
    ("synth.generate_true_weights", "tnbs.synth", "generate_true_weights", ()),
    ("cli.read_csv", "tnbs.cli", "read_signal_csv", ()),
    ("cli.write_csv", "tnbs.cli", "write_signal_csv", ()),
    ("cli.write_csv", "tnbs.cli", "_write_prediction_csv", ()),
    ("cli.main", "tnbs.cli", "main", ()),
]

SELF_TIME_LAYERS = list(dict.fromkeys(layer for layer, *_ in TARGETS))
CALL_COUNT_LAYERS = ["tensor.qr_shift", "bspline.basis_rows", "model.surface_point"]

# Every metric metrics() reports, in order.
METRIC_NAMES = (
    [f"{layer}.self_s" for layer in SELF_TIME_LAYERS]
    + [f"{layer}.calls" for layer in CALL_COUNT_LAYERS]
    + list(COUNTERS)
    + ["solver.fallback_ratio"]
)


class Tracer:
    """Collects spans and counts while installed; uninstall restores every name."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, iteration]
        self.counts = Counter()
        self.iteration = 0
        self.missing_targets = []
        self._failed_counters = set()
        self._live_layers = set()
        self._live_counters = set()
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for name in counters:
                try:
                    counts[name] += int(COUNTERS[name](args, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    # The call's arguments or result no longer have this shape.
                    self._failed_counters.add(name)
            return result

        return traced

    def install(self):
        self.missing_targets = []
        for layer, module_name, path, counters in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = None if owner is None else inspect.getattr_static(owner, name, None)
            if original is None:
                self.missing_targets.append(f"{module_name}.{path}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(layer, original.__func__, counters))
            else:
                wrapped = self._wrap(layer, original, counters)
            setattr(owner, name, wrapped)
            self._patches.append((owner, name, original))
            self._live_layers.add(layer)
            self._live_counters.update(counters)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def metrics(self, iterations: int):
        """Per-iteration values of METRIC_NAMES, and the names that are absent.

        An absent metric reads 0.0 and is listed, so that the set of reported
        names stays the same when a later change removes a traced function.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            self_s[layer] += end - start - child
            calls[layer] += 1

        live_counters = self._live_counters - self._failed_counters
        present = {f"{layer}.self_s" for layer in self._live_layers}
        present |= {f"{layer}.calls" for layer in self._live_layers}
        present |= live_counters
        if {"solver.updates", "solver.fallback_solves"} <= live_counters:
            present.add("solver.fallback_ratio")

        updates = self.counts["solver.updates"]
        totals = {
            **{f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS},
            **{f"{layer}.calls": calls[layer] for layer in CALL_COUNT_LAYERS},
            **{name: self.counts[name] for name in COUNTERS},
        }
        values = {name: totals[name] / iterations if name in present else 0.0
                  for name in totals}
        values["solver.fallback_ratio"] = (
            self.counts["solver.fallback_solves"] / updates
            if updates and "solver.fallback_ratio" in present else 0.0)
        absent = [name for name in METRIC_NAMES if name not in present]
        return values, absent

    def span_records(self):
        """Spans as [layer, start, end, parent, iteration], times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[layer, round(start - t0, 9), round(end - t0, 9), parent, it]
                for layer, start, end, parent, it in self.spans]
