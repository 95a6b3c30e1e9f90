"""Span recorder that wraps glmdopt's public functions from outside.

Nothing under ``src/`` is modified. Each traced function is replaced at
every module attribute that is bound to it (a function imported under
several names is otherwise only partly traced), plus two class-level
hooks: ``WeightFunction.__call__`` and ``DesignProblem.__post_init__``.
The L-BFGS-B polish is reached through a proxy installed as
``glmdopt.boundary.optimize``. Spans are kept in memory with parent ids and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "glmdopt",
    "glmdopt.cli",
    "glmdopt.design",
    "glmdopt.weights",
    "glmdopt.twofactor",
    "glmdopt.solver4",
    "glmdopt.saturated",
    "glmdopt.liftone",
    "glmdopt.boundary",
)

#: (defining module, function) traced at every binding site
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "load_problem_file"),
    ("cli", "dispatch_solve"),
    ("design", "objective_det"),
    ("twofactor", "compute_u"),
    ("twofactor", "solve_fourpoint"),
    ("solver4", "solve_22"),
    ("saturated", "compute_v"),
    ("saturated", "root_mu"),
    ("saturated", "solve_saturated"),
    ("liftone", "liftone_maximize"),
    ("boundary", "check_boundary_optimal"),
    ("boundary", "region_sweep"),
)

#: case labels each solver can return; anything else lands in ``.other``
CASE_LABELS = {
    "solver4": [f"2x2-case-{c}" for c in ("i", "ii", "iii", "iv", "v", "2a", "2b", "2c", "2d")],
    "twofactor": ["degenerate-rank2"]
    + [f"twofactor-{c}" for c in ("2a", "2b", "2c", "2d")]
    + [f"twofactor-case-{c}" for c in ("i", "ii", "iii", "iv", "v", "2a", "2b", "2c", "2d")],
    "saturated": [f"saturated-{c}" for c in ("boundary", "h1", "h2")],
}

TIMED = (
    "cli.main",
    "cli.load_problem_file",
    "cli.dispatch_solve",
    "weights",
    "design.DesignProblem",
    "design.objective_det",
    "twofactor.compute_u",
    "twofactor.solve_fourpoint",
    "solver4.solve_22",
    "saturated.compute_v",
    "saturated.root_mu",
    "saturated.solve_saturated",
    "liftone.liftone_maximize",
    "boundary.polish",
    "boundary.check_boundary_optimal",
    "boundary.region_sweep",
)


def layer_metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [
        "cli.main.self_ms",
        "cli.load_problem_file.self_ms",
        "cli.dispatch_solve.self_ms",
        "weights.calls",
        "weights.elements",
        "weights.self_ms",
        "design.DesignProblem.calls",
        "design.DesignProblem.self_ms",
        "design.objective_det.calls",
        "design.objective_det.self_ms",
        "twofactor.compute_u.self_ms",
        "twofactor.solve_fourpoint.self_ms",
    ]
    names += [f"twofactor.case.{c}" for c in CASE_LABELS["twofactor"] + ["other"]]
    names += ["solver4.solve_22.calls", "solver4.solve_22.self_ms", "solver4.quartic_fallbacks"]
    names += [f"solver4.case.{c}" for c in CASE_LABELS["solver4"] + ["other"]]
    names += [
        "saturated.compute_v.self_ms",
        "saturated.root_mu.calls",
        "saturated.root_mu.self_ms",
        "saturated.solve_saturated.self_ms",
        "saturated.bisect_iterations",
    ]
    names += [f"saturated.case.{c}" for c in CASE_LABELS["saturated"] + ["other"]]
    names += [
        "liftone.liftone_maximize.calls",
        "liftone.liftone_maximize.self_ms",
        "liftone.sweeps",
        "liftone.max_sweeps_hit",
        "liftone.converged_ratio",
        "boundary.polish.calls",
        "boundary.polish.self_ms",
        "boundary.polish.nfev",
        "boundary.check_boundary_optimal.calls",
        "boundary.check_boundary_optimal.self_ms",
        "boundary.region_sweep.self_ms",
        "boundary.failed_nodes",
        "trace.spans",
        "trace.overhead_pct",
        "gate.checked",
        "gate.unchecked",
        "gate.known_defect_ratio",
    ]
    return names


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/round"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_pct"):
        return "%"
    return "count/round"


class Tracer:
    """Installs wrappers, records spans and counters, and restores everything."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.counts = Counter()
        self.cases = defaultdict(Counter)
        self.sites = defaultdict(list)
        self._undo = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def _exit(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- counters read from results -------------------------------------

    def _case(self, layer):
        def after(report):
            self.cases[layer][report.case_label] += 1
            if layer == "solver4":
                self.counts["solver4.quartic_fallbacks"] += int(
                    report.diagnostics.get("quartic_fallback", 0.0)
                )
            if layer == "saturated":
                self.counts["saturated.bisect_iterations"] += int(
                    report.diagnostics.get("bisect_iterations", 0.0)
                )

        return after

    def _liftone(self, report):
        sweeps = int(report.diagnostics["sweeps"])
        self.counts["liftone.sweeps"] += sweeps
        if report.diagnostics["converged"]:
            self.counts["liftone.converged"] += 1
        else:
            self.counts["liftone.max_sweeps_hit"] += 1

    def _polish(self, res):
        self.counts["boundary.polish.nfev"] += int(getattr(res, "nfev", 0))

    def _region(self, grid):
        self.counts["boundary.failed_nodes"] += int(grid.failed.sum())

    def _weights(self, args):
        self.counts["weights.elements"] += int(np.size(args[1]))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: importlib.import_module(name) for name in MODULES}
        after = {
            "twofactor.solve_fourpoint": self._case("twofactor"),
            "solver4.solve_22": self._case("solver4"),
            "saturated.solve_saturated": self._case("saturated"),
            "liftone.liftone_maximize": self._liftone,
            "boundary.region_sweep": self._region,
        }
        for module, func in FUNCTIONS:
            original = getattr(mods[f"glmdopt.{module}"], func)
            name = f"{module}.{func}"
            wrapped = self._wrap(name, original, after=after.get(name))
            for mod_name, mod in mods.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
                        self.sites[name].append(f"{mod_name}.{attr}")

        weights_cls = mods["glmdopt.weights"].WeightFunction
        self._patch(
            weights_cls, "__call__", self._wrap("weights", weights_cls.__call__, before=self._weights)
        )
        self.sites["weights"].append("glmdopt.weights.WeightFunction.__call__")
        design_cls = mods["glmdopt.design"].DesignProblem
        self._patch(
            design_cls, "__post_init__", self._wrap("design.DesignProblem", design_cls.__post_init__)
        )
        self.sites["design.DesignProblem"].append("glmdopt.design.DesignProblem.__post_init__")

        boundary = mods["glmdopt.boundary"]
        self._patch(boundary, "optimize", _OptimizeProxy(boundary.optimize, self))
        self.sites["boundary.polish"].append("glmdopt.boundary.optimize.minimize")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Per-name (calls, self seconds): duration minus direct children."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        busy = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            busy[name] += (end - start) - child[sid]
        return calls, busy

    def metrics(self, rounds: int):
        """Per-layer metrics averaged per traced round."""
        calls, busy = self.self_times()
        per = 1.0 / max(rounds, 1)
        out = {}
        for name in TIMED:
            out[f"{name}.self_ms"] = busy[name] * 1e3 * per
            out[f"{name}.calls"] = calls[name] * per
        out["weights.elements"] = self.counts["weights.elements"] * per
        out["boundary.polish.nfev"] = self.counts["boundary.polish.nfev"] * per
        out["boundary.failed_nodes"] = self.counts["boundary.failed_nodes"] * per
        out["solver4.quartic_fallbacks"] = self.counts["solver4.quartic_fallbacks"] * per
        out["saturated.bisect_iterations"] = self.counts["saturated.bisect_iterations"] * per
        out["liftone.sweeps"] = self.counts["liftone.sweeps"] * per
        out["liftone.max_sweeps_hit"] = self.counts["liftone.max_sweeps_hit"] * per
        attempts = self.counts["liftone.converged"] + self.counts["liftone.max_sweeps_hit"]
        out["liftone.converged_ratio"] = (
            self.counts["liftone.converged"] / attempts if attempts else 1.0
        )
        for layer, labels in CASE_LABELS.items():
            seen = self.cases[layer]
            for label in labels:
                out[f"{layer}.case.{label}"] = seen[label] * per
            out[f"{layer}.case.other"] = sum(
                v for k, v in seen.items() if k not in labels
            ) * per
        out["trace.spans"] = len(self.spans) * per
        return out

    def write(self, path):
        """Spans as JSON lines: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"sites": self.sites}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``glmdopt.boundary``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.minimize = tracer._wrap("boundary.polish", module.minimize, after=tracer._polish)

    def __getattr__(self, attr):
        return getattr(self._module, attr)
