"""Runtime tracing of the solver's layers from outside the program.

The program has no spans of its own.  :func:`install` replaces the public
functions listed in :data:`TARGETS` with wrappers that record one span each
(name, start, end, parent) in a :class:`Recorder`, and returns a handle whose
``restore`` puts the originals back.  A function imported by name into
another module is rebound there too, so calls through either name are seen.

A target whose module or attribute no longer exists is reported as absent;
its layer's metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    span: str  # span name the wrapper records
    layer: str  # module name used to report the layer
    module: str
    attr: str  # "func" or "Class.method"


_SCIPY_FFTS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")

TARGETS = (
    Target("solver.setup", "solver", "fastpoisson.solver", "SolverPlan.__init__"),
    Target("solver.solve", "solver", "fastpoisson.solver", "SolverPlan.solve"),
    Target("eigenvalues.table", "eigenvalues", "fastpoisson.eigenvalues", "eigenvalue_table"),
    Target("eigenvalues.combine", "eigenvalues", "fastpoisson.eigenvalues", "combine_eigenvalues"),
    Target("transforms.real", "transforms", "fastpoisson.transforms", "TransformPlan.execute_real"),
    *(Target("transforms.fft", "transforms", "scipy.fft", name) for name in _SCIPY_FFTS),
    Target("reorder.gather", "reorder", "fastpoisson.reorder", "gather_lines"),
    Target("reorder.scatter", "reorder", "fastpoisson.reorder", "scatter_lines"),
    Target("flow.step", "flow", "fastpoisson.flow", "ProjectionFlow.rk3_step"),
    Target("flow.advective", "flow", "fastpoisson.flow", "advective_term"),
    Target("flow.viscous", "flow", "fastpoisson.flow", "viscous_term"),
    Target("flow.gradient", "flow", "fastpoisson.flow", "gradient"),
    Target("flow.divergence", "flow", "fastpoisson.flow", "divergence"),
)


class Recorder:
    """In-memory span store.  Each span is ``[name, start, end, parent, extra]``;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "solver.solve":
                # keep the program's own phase timers next to the outside time
                span[4] = dict(getattr(result[1], "timing", None) or {})
            return result

        return traced

    def aggregate(self):
        """Total time, self time (total minus direct children) and count per span name."""
        total = defaultdict(float)
        child = defaultdict(float)
        count = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            count[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
        return {
            name: {"total_s": total[name], "self_s": self_time[name], "count": count[name]}
            for name in total
        }

    def solve_phases(self):
        """Per solve span: its outside duration and the report's phase timings."""
        return [
            (end - start, extra)
            for name, start, end, _, extra in self.spans
            if name == "solver.solve"
        ]


def _resolve(target):
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = module
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    if fn is None:
        return None
    return owner, leaf, fn


class Installed:
    """Handle on installed wrappers: which layers were found, and restore()."""

    def __init__(self):
        self._undo = []
        self.found = set()
        self.absent = set()

    def restore(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def install(recorder, targets=TARGETS):
    handle = Installed()
    for target in targets:
        resolved = _resolve(target)
        if resolved is None:
            handle.absent.add(target.span)
            continue
        owner, leaf, original = resolved
        wrapper = recorder.wrap(target.span, original)
        holders = [owner]
        if not isinstance(owner, type):
            # a module-level function: rebind every module of the package
            # that imported it by name
            holders += [
                mod
                for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "fastpoisson"
                and mod is not owner
                and getattr(mod, leaf, None) is original
            ]
        for holder in holders:
            handle._undo.append((holder, leaf, original))
            setattr(holder, leaf, wrapper)
        handle.found.add(target.span)
    handle.absent -= handle.found
    return handle
