"""Layer spans recorded from outside the ``arealaw`` package.

The tracer replaces the public functions of each measured module by timing
wrappers, under every module name that holds them (``max_flow`` is imported
by name into ``spectral_predictor``, ``transport`` and ``cli``), so calls
made inside the package are seen as well.  Nothing in ``src/`` is changed.

A call opens a span only when it crosses into another component: a module,
or for ``mc_simulator`` one of its Monte Carlo stages.  Calls inside the
same component (``min_cut`` running ``max_flow``, ``certify`` running
``routing``) belong to the caller's span, but every call is still counted.
Spans are kept in memory as ``(id, parent, op, name, start, end)`` and self
times are derived from them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "graph_model",
    "boundary_flow",
    "marking",
    "spectral_predictor",
    "mc_simulator",
    "transport",
    "cli",
)

# mc_simulator is split by stage; its other helpers fold into their caller.
MC_STAGES = {
    "haar_unitary": "haar",
    "ginibre": "haar",
    "build_reduced_state": "assemble",
    "spectral_report": "spectrum",
    "run_experiment": "experiment",
}

# Functions whose arguments or results feed a count (see ``_observe``).
OBSERVED = {
    "mc_simulator.haar_unitary",
    "mc_simulator.build_reduced_state",
    "marking.area_bruteforce",
    "mc_simulator.run_experiment",
}

# Complex Householder QR plus the explicit Q factor: 2 x (16/3) n^3 flops.
QR_FLOPS_PER_N3 = 32.0 / 3.0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tracer:
    """Wraps the measured modules while installed and records spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.haar_flops = 0.0
        self.state_bytes_max = 0
        self.markings = 0
        self.samples = 0
        self.experiment_cpu_s = 0.0
        self.op_kinds: dict[int, str] = {}
        self._stack: list[tuple] = []
        self._next_id = 1
        self._op = None
        self._kind = None
        self._targets: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._targets:
            self._targets = self._find_targets()
        for holder, attr, _, wrapper in self._targets:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn, _ in self._targets:
            setattr(holder, attr, fn)

    def _find_targets(self) -> list[tuple]:
        modules = {s: importlib.import_module(f"arealaw.{s}") for s in MODULES}
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "arealaw" or name.startswith("arealaw.")]
        targets = []
        for short, module in modules.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if short == "mc_simulator":
                    if name not in MC_STAGES:
                        continue
                    component = f"mc_simulator.{MC_STAGES[name]}"
                else:
                    component = short
                wrapper = self._wrap(fn, component, f"{short}.{name}")
                targets.extend((holder, attr, fn, wrapper)
                               for holder in holders
                               for attr, value in vars(holder).items()
                               if value is fn)
        return targets

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str, op_id: int):
        """Root span of one benchmark operation; layer spans nest under it."""
        self._op, self._kind = op_id, kind
        self.op_kinds[op_id] = kind
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, "bench"))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, 0, op_id, f"op.{kind}", start, end))

    def _wrap(self, fn, component: str, name: str):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[(tracer._kind, name)] += 1
            cpu = _cpu_seconds() if name == "mc_simulator.run_experiment" else None
            if stack and stack[-1][1] == component:
                result = fn(*args, **kwargs)
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][0] if stack else 0
                stack.append((span_id, component))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, parent, tracer._op, name, start, end))
            if observed:
                tracer._observe(name, args, kwargs, result, cpu)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result, cpu_before) -> None:
        """Counts taken at the boundary from the arguments and results."""
        if name == "mc_simulator.haar_unitary":
            dim = args[0] if args else kwargs["dim"]
            self.haar_flops += QR_FLOPS_PER_N3 * dim ** 3
        elif name == "mc_simulator.build_reduced_state":
            marginal, n = args[0], args[1]
            dim = 1
            for leg in marginal.graph.legs:
                dim *= leg.ratio * n
            self.state_bytes_max = max(self.state_bytes_max, 16 * dim)
        elif name == "marking.area_bruteforce":
            self.markings += result.combinations
        elif name == "mc_simulator.run_experiment":
            self.samples += result.samples
            self.experiment_cpu_s += _cpu_seconds() - cpu_before

    # -- analysis -----------------------------------------------------------

    def self_times(self, kinds=None) -> dict[str, float]:
        """Span duration minus the durations of its direct children, summed
        per span name, over the operations of the given kinds (all if None)."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, op, name, start, end in self.spans:
            if kinds is None or self.op_kinds.get(op) in kinds:
                totals[name] += (end - start) - child[span_id]
        return dict(totals)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return math.fsum(end - start for _, _, _, n, start, end in self.spans
                         if n == name)

    def nested_total(self, outer: str, inner: str) -> float:
        """Total duration of ``inner`` spans that run inside ``outer`` spans."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span[3] != inner:
                continue
            parent = by_id.get(span[1])
            while parent is not None and parent[3] != outer:
                parent = by_id.get(parent[1])
            if parent is not None:
                total += span[5] - span[4]
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, op, name, start, end]) + "\n")
