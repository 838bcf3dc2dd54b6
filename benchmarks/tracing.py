"""Spans around the calls into tiltgen's modules, installed from outside the package.

``install`` replaces selected functions and methods of the loaded ``tiltgen``
modules with wrappers.  A module-level function is rebound in every tiltgen
module that imported it by name, so ``from .rng import derive_seed`` call
sites are wrapped too; a method is replaced on its class.  Names that do not
exist in the program (say, after a refactor) are skipped and listed in
``missing`` instead of failing the run.

``Tracer`` records one span (name, start, end, parent) per wrapped call in
memory; ``summary`` turns them into per-layer counts, busy time and self time
(span duration minus the time covered by its direct children).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

# Layer -> entries to wrap.  "name" is a module-level function, "Class.method"
# a method defined on that class, "*.method" that method on every class
# defined in the module.  The flow's cached forward/backward are the calls the
# fit loop makes into ``flows``, so they are wrapped rather than the public
# wrappers around them (which would count every pass twice).
SPANS = {
    "config": ["load_config", "validate_config", "build_plan", "criterion_from_spec"],
    "rng": ["make_generator", "derive_seed"],
    "dists": [
        "*.sample", "*.log_density", "*.score",
        "GaussianMixture.responsibilities", "LatentDecoder.decode",
        "distribution_from_spec",
    ],
    "criteria": ["*.value", "*.grad", "normalize_affine"],
    "flows": [
        "FlowModel._forward_cached", "FlowModel._backward_cached",
        "FlowModel.inverse", "FlowModel.copy", "init_identity",
    ],
    "tuner": [
        "fit_q", "Adam.step",
        "TunedModel.sample", "TunedModel.sample_with_logratio", "TunedModel.log_density",
    ],
    "solver": ["solve", "estimate_moments", "newton_step", "pareto_sweep"],
    "diagnostics": ["compare_criteria", "importance_curves", "grad_norm_profile", "audit_run"],
    "oracles": ["rejection_sample"],
    "manifest": ["write_csv", "write_json_atomic", "build_manifest", "write_run_outputs"],
    "cli": ["cmd_tune", "cmd_pareto", "cmd_diagnose"],
}

# Entry -> metric group suffix, where the group is not the entry's last name.
_GROUP_NAMES = {
    "FlowModel._forward_cached": "forward",
    "FlowModel._backward_cached": "backward",
    "Adam.step": "adam",
}

LAYERS = tuple(SPANS)


def _group(layer: str, entry: str) -> str:
    return f"{layer}.{_GROUP_NAMES.get(entry, entry.split('.')[-1])}"


def install(spans: dict, make_wrapper) -> list[str]:
    """Wrap every entry of ``spans``; returns the entries the program lacks.

    ``make_wrapper(span_name, group, fn)`` returns the replacement callable.
    """
    missing = []
    rebind = {}  # id(original function) -> (original, wrapper)
    for layer, entries in spans.items():
        module = importlib.import_module(f"tiltgen.{layer}")
        for entry in entries:
            group = _group(layer, entry)
            if "." not in entry:
                fn = vars(module).get(entry)
                if not isinstance(fn, types.FunctionType):
                    missing.append(f"{layer}.{entry}")
                    continue
                rebind[id(fn)] = (fn, make_wrapper(f"{layer}.{entry}", group, fn))
                continue
            cls_name, method = entry.split(".")
            if cls_name == "*":
                classes = [
                    c for c in vars(module).values()
                    if isinstance(c, type) and c.__module__ == module.__name__
                ]
            else:
                classes = [vars(module).get(cls_name)]
            found = False
            for cls in classes:
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if isinstance(fn, types.FunctionType):
                    name = f"{layer}.{cls.__name__}.{method}"
                    setattr(cls, method, make_wrapper(name, group, fn))
                    found = True
            if not found:
                missing.append(f"{layer}.{entry}")
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "tiltgen" or module_name.startswith("tiltgen.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = rebind.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


def _mlp_weight_count(flow) -> int:
    """Sum of fan_in * fan_out over the flow's conditioner matrices."""
    total = 0
    for layer in getattr(flow, "layers", ()):
        for w in getattr(getattr(layer, "mlp", None), "weights", ()):
            total += int(w.size)
    return total


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_forward(counters, args, kwargs, result):
    counters["flows.matmul_flops"] += 2 * args[1].shape[0] * _mlp_weight_count(args[0])


def _count_backward(counters, args, kwargs, result):
    # weight gradient and input gradient: two matmuls per conditioner layer
    counters["flows.matmul_flops"] += 4 * args[2].shape[0] * _mlp_weight_count(args[0])


def _count_moments(counters, args, kwargs, result):
    counters["solver.moment_samples"] += int(_arg(args, kwargs, 2, "n"))


def _count_fit(counters, args, kwargs, result):
    counters["tuner.steps_used"] += len(result.trace_rows)
    counters["tuner.steps_budget"] += int(_arg(args, kwargs, 4, "cfg").steps)


def _count_rejection(counters, args, kwargs, result):
    counters["oracles.rejection_draws"] += int(result.attempts)
    counters["oracles.rejection_accepted"] += int(result.samples.shape[0])


_COUNTERS = {
    "flows.forward": _count_forward,
    "flows.backward": _count_backward,
    "solver.estimate_moments": _count_moments,
    "tuner.fit_q": _count_fit,
    "oracles.rejection_sample": _count_rejection,
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.groups: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, group: str, fn):
        spans, groups, stack, active = self.spans, self.groups, self._stack, self._active
        counters, busy, outer_calls = self.counters, self.busy, self.outer_calls
        count = _COUNTERS.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            groups.append(group)
            outer = active[group] == 0
            active[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                active[group] -= 1
                stack.pop()
            if outer:
                busy[group] += record[2] - record[1]
                outer_calls[group] += 1
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, spans: dict = SPANS) -> list[str]:
        return install(spans, self.wrap)

    def summary(self) -> dict:
        """Per-group calls/busy/self, per-layer self time, and counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        group_self: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s = (end - start) - child_time[i]
            group = self.groups[i]
            calls[group] += 1
            group_self[group] += self_s
            layer_self[group.split(".")[0]] += self_s
            if parent < 0:
                root_s += end - start
        return {
            "spans": n,
            "root_s": root_s,
            "calls": dict(calls),
            "outer_calls": dict(self.outer_calls),
            "busy_s": dict(self.busy),
            "self_s": dict(group_self),
            "layer_self_s": dict(layer_self),
            "counters": dict(self.counters),
        }

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent."""
        with open(path, "w") as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
