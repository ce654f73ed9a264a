"""Per-layer tracing from outside the program.

:class:`Spans` records host-time spans by name. The benchmark opens the
top-level phase spans itself; :func:`install` wraps public entry points of
the program's layers so that each call opens a span too. A span's self
time is its duration minus the wrapped child spans inside it. Layers
whose work runs as simulator generators (engine, resources, servers,
devices, middleware) are attributed by profiler self time per module
instead, which the profiler takes per generator resume.
"""

from __future__ import annotations

import functools
import os
import pstats
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Spans:
    """Inclusive and self host seconds per span name, plus named counts."""

    def __init__(self):
        #: Name -> seconds, counting only spans not nested in a same-name span.
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Name -> seconds of spans opened with no span around them.
        self.top: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds of direct children]

    @contextmanager
    def span(self, name: str):
        nested_in_same = any(frame[0] == name for frame in self._stack)
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            if not nested_in_same:
                self.inclusive[name] += duration
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.top[name] += duration


#: (module key, function, span name): module-level entry points. Callers
#: look these names up at call time, so replacing the attribute reaches them.
FUNCTIONS = (
    ("harness", "calibrate_parameters", "calibrate"),
    ("planner", "sort_trace", "workloads.generate"),
    ("planner", "trace_arrays", "workloads.generate"),
    ("planner", "divide_regions_bounded", "core.divide_regions"),
    ("planner", "determine_stripes", "core.stripe_determination"),
    ("mapping", "decompose", "mapping.decompose"),
    ("mapping", "decompose_batch", "mapping.decompose"),
    ("mapping", "decompose_batch_flat", "mapping.decompose"),
    ("batch_exec", "replay_batch", "batch_exec.replay"),
    ("columnar", "replay_columnar", "columnar.replay"),
)

#: (module key, class, method): workload generators. Each call is a
#: ``workloads.generate`` span and adds its output length to ``workloads.requests``.
GENERATORS = (
    ("ior", "IORWorkload", "synthetic_trace"),
    ("ior", "IORWorkload", "request_batch"),
    ("btio", "BTIOWorkload", "synthetic_trace"),
    ("btio", "BTIOWorkload", "request_batch"),
)

#: Profiled module path fragment per self-time metric.
PROFILED = {
    "engine.self_s": "/repro/simulate/engine.py",
    "resources.self_s": "/repro/simulate/resources.py",
    "server.self_s": "/repro/pfs/server.py",
    "devices.self_s": "/repro/devices/",
    "filesystem.self_s": "/repro/pfs/filesystem.py",
    "metadata.self_s": "/repro/pfs/metadata.py",
    "mpiio.self_s": "/repro/middleware/mpiio.py",
    "mpi_sim.self_s": "/repro/middleware/mpi_sim.py",
    "collective.self_s": "/repro/middleware/collective.py",
}


def _timed(spans: Spans, name: str, fn, count: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with spans.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            spans.counts[count] += len(result)
        return result

    return wrapper


def _counted(spans: Spans, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(R, spans: Spans):
    """Wrap the layers' entry points in ``R``; returns a function that undoes it."""
    undo = []

    def replace(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for key, attr, name in FUNCTIONS:
        module = getattr(R, key)
        replace(module, attr, _timed(spans, name, getattr(module, attr)))
    for key, cls_name, attr in GENERATORS:
        cls = getattr(getattr(R, key), cls_name)
        wrapper = _timed(spans, "workloads.generate", getattr(cls, attr), "workloads.requests")
        replace(cls, attr, wrapper)
    engine = R.collective.CollectiveEngine
    replace(engine, "call", _counted(spans, "collective.calls", engine.call))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def module_self_times(profile) -> dict[str, float]:
    """Profiler self seconds summed per module of :data:`PROFILED`."""
    totals = dict.fromkeys(PROFILED, 0.0)
    for (filename, _, _), (_, _, self_seconds, _, _) in pstats.Stats(profile).stats.items():
        path = filename.replace(os.sep, "/")
        for metric, fragment in PROFILED.items():
            if fragment in path:
                totals[metric] += self_seconds
    return totals
