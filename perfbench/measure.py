"""Timing, tracing and the pass loop shared by every workload.

A *pass* runs one workload's whole operation mix once.  ``Pass.call`` times
each public library call the benchmark makes; the workload sums those
durations into end-to-end metrics.  With a ``Tracer`` installed, the
library's exported functions are wrapped at every module boundary, so a
traced pass also records a span (name, start, end, parent, workload, pass)
for each call between layers, from which per-layer self times follow.
"""

from __future__ import annotations

import functools
import gc
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

LAYERS = ("instance", "stability", "fixed_edge", "rotations", "lattice", "polytope", "cli")


class Pass:
    """Timings and counters of one pass; ``call`` is the only timed entry."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.samples: dict[str, list[float]] = defaultdict(list)  # extra per-layer samples
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.wall = 0.0

    def call(self, key: str, layer: str, fn, *args):
        """Run ``fn(*args)`` as one timed operation filed under ``key``."""
        self.attempted += 1
        if self.tracer is not None:
            return self.tracer.call(f"{layer}.op.{key}", fn, args, {}, self.times[key])
        start = time.perf_counter()
        result = fn(*args)
        self.times[key].append(time.perf_counter() - start)
        return result

    def total(self, *keys) -> float:
        return sum(sum(self.times.get(k, ())) for k in keys)


class Tracer:
    """In-memory spans around calls into the library's layers.

    ``install`` replaces each exported function of the seven layer modules,
    and ``Instance.__init__``, by a recording wrapper wherever the package's
    modules refer to it, so calls one layer makes into another are spanned
    too; ``restore`` puts the originals back.  Generator functions are left
    alone: their work is spanned by the benchmark call that consumes them.
    """

    # spans of these functions also record the size of their result
    SIZES = {"rotations.maximal_sequence": lambda chain: max(len(chain) - 1, 0)}

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id = 0
        self.spans: list[tuple] = []  # (name, start, end, parent, pass_id, size)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, fn, args, kwargs, sink=None):
        at = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(at)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            size = self.SIZES[name](result) if name in self.SIZES and result is not None else None
            self.spans[at] = (name, start, end, parent, self.pass_id, size)
            if sink is not None:
                sink.append(end - start)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self, package) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == package.__name__]
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in vars(module).items():
                exported = getattr(package, attr, None) is fn or (layer == "cli" and attr == "main")
                if (
                    exported
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    replace[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        init = package.Instance.__init__
        self._undo.append((package.Instance, "__init__", init))
        package.Instance.__init__ = self._wrap("instance.Instance", init)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived numbers

    def by_pass(self):
        """pass id -> list of Span(name, duration, self time, parent name, size).

        A span's self time is its duration minus its direct children's."""
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, parent, pid, size) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            out[pid].append(Span(name, end - start, end - start - child[i], parent_name, size))
        return out

    def dump(self) -> dict:
        return {
            "workload": self.workload,
            "fields": ["name", "start", "end", "parent", "workload", "pass", "size"],
            "spans": [
                [name, start, end, parent, self.workload, pid, size]
                for name, start, end, parent, pid, size in self.spans
            ],
        }


class Span(NamedTuple):
    name: str
    duration: float
    self_time: float
    parent: str | None
    size: int | None


def median(values):
    return statistics.median(values) if values else None


def high_percentile(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than 100 samples."""
    for label, q in (("p99", 99), ("p90", 90)):
        if len(values) * (100 - q) >= 1000:
            return label, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


@dataclass
class Run:
    plain: list = field(default_factory=list)  # untraced passes
    traced: list = field(default_factory=list)
    tracer: Tracer | None = None
    failures: list = field(default_factory=list)  # one message per failed operation
    attempted: int = 0
    results: dict | None = None  # of the last completed pass


def run_passes(workload, seconds: float, traced: bool, package) -> Run:
    """Run passes until ``seconds`` of measuring are used up.

    The first pass warms up (first-touch memory, lazy imports) and is
    checked in full but not counted.  Each pass starts from a collected
    heap.  Untraced and traced passes alternate when ``traced`` is set, so
    the tracing overhead is measured within one run.  A pass whose results
    differ from the last checked ones is checked again; one that repeats
    them repeats their verdict.  An operation that raises ends the run.
    """
    run = Run(tracer=Tracer(workload.name) if traced else None)
    reference, found = None, []
    started = time.perf_counter()
    while True:
        warmup = reference is None
        use_tracer = traced and not warmup and len(run.traced) < len(run.plain)
        p = Pass(run.tracer if use_tracer else None)
        if use_tracer:
            run.tracer.pass_id = len(run.traced)
            run.tracer.install(package)
        gc.collect()
        begin = time.perf_counter()
        try:
            results = workload.run(p)
        except Exception as err:  # the operation failed; report it, do not crash
            run.failures.append(f"{type(err).__name__}: {err}")
            run.attempted += p.attempted
            return run
        finally:
            p.wall = time.perf_counter() - begin
            if use_tracer:
                run.tracer.restore()
        run.attempted += p.attempted
        run.results = results
        if not warmup:
            (run.traced if use_tracer else run.plain).append(p)
        if results != reference:
            try:
                found = workload.check(results)
            except Exception as err:  # malformed results are failed operations too
                found = [f"check failed on malformed results: {type(err).__name__}: {err}"]
            reference = results
        run.failures.extend(found)  # a pass repeating checked results repeats their failures
        elapsed = time.perf_counter() - started
        if elapsed + p.wall > seconds and run.plain and len(run.traced) >= int(traced):
            return run
