"""The benchmark's own tracer: spans around calls into each layer.

Nothing under ``src/`` is instrumented.  The tracer wraps *public
callables by name* (``core.driver.plan_run``, ``Environment.run``,
``QueryEngine.distance``, ...) for the duration of a traced round and
puts them back afterwards; kernels are seen through
:class:`TracingBackend`, a ``KernelBackend`` proxy handed to the program
as its ``kernel_backend``.

A span is ``[name, layer, start, end, parent, op_id]``.  Spans of one
operation share ``op_id``; a span's self time is its duration minus the
part its direct children cover, so per-layer self times sum to the root
span by construction.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from repro.semiring.backends import KernelBackend, get_backend

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory span recorder with wrap/unwrap of named callables."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------
    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def span(self, name: str, layer: str, new_op: bool = False):
        """A span around a block of the benchmark's own code; ``new_op``
        starts a fresh ``op_id`` that every nested span inherits."""
        if new_op:
            self.next_op()
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def next_op(self) -> None:
        """Spans recorded from now on belong to a new operation."""
        self._op_id += 1

    def drain(self) -> list[list]:
        """Hand back the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        spans = self.spans[:]
        del self.spans[:]  # in place: wrappers hold a reference to the list
        return spans

    # -- patching -----------------------------------------------------------
    def patch_function(self, func: Callable, name: str, layer: str) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it
        (``from .driver import plan_run`` copies the reference, so every
        importing module is patched)."""
        traced = self.wrap(func, name, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, traced)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, func))

    def patch_method(self, cls: type, attr: str, layer: str) -> None:
        func = vars(cls)[attr]
        setattr(cls, attr, self.wrap(func, f"{cls.__name__}.{attr}", layer))
        self._undo.append(lambda: setattr(cls, attr, func))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()


def patch_solve_layers(tracer: Tracer) -> None:
    """Spans around the driver stages and the event engine."""
    from repro.core import distribution, driver
    from repro.sim.engine import Environment

    tracer.patch_function(driver.plan_run, "plan_run", "core")
    tracer.patch_function(distribution.collect, "collect", "core")
    tracer.patch_function(driver.build_result, "build_result", "core")
    tracer.patch_method(driver.RunPlan, "distribute", "core")
    tracer.patch_method(Environment, "run", "sim")


def patch_sched_layers(tracer: Tracer) -> None:
    from repro.sched import ClusterScheduler

    tracer.patch_method(ClusterScheduler, "submit", "sched")
    tracer.patch_method(ClusterScheduler, "run", "sched")


def patch_serve_layers(tracer: Tracer) -> None:
    from repro.serve import Artifact, ArtifactPatcher, BlockCache, QueryEngine

    for attr in ("distance", "batch", "k_nearest", "submatrix", "_load"):
        tracer.patch_method(QueryEngine, attr, "serve.query")
    tracer.patch_method(BlockCache, "get", "serve.cache")
    for attr in ("load_block", "rewrite_block", "rewrite_graph", "flush"):
        tracer.patch_method(Artifact, attr, "serve.artifact")
    tracer.patch_method(ArtifactPatcher, "update_edge", "serve.incremental")


# -- kernel proxy -------------------------------------------------------------

_KERNEL_ENTRIES = (
    "srgemm_accumulate", "srgemm_diag", "srgemm_panel", "srgemm_outer",
)


class TracingBackend(KernelBackend):
    """Delegates every kernel to ``inner``; counts calls, 2mnk flops and
    computed operand bytes, and records one ``semiring`` span per call
    when given a tracer.  Keeps the inner backend's identity
    (``name``, ``modeled_cost_scale``, ...) so simulated time and
    numerics are unchanged - the workloads check that they are."""

    available = True

    def __init__(self, inner: KernelBackend, tracer: Optional[Tracer] = None):
        super().__init__(byte_budget=inner.byte_budget)
        self.inner = inner
        self.name = inner.name
        self.compute_dtype = inner.compute_dtype
        self.rtol = inner.rtol
        self.modeled_cost_scale = inner.modeled_cost_scale
        self.reset()
        for entry in _KERNEL_ENTRIES:
            call = self._product(getattr(inner, entry))
            setattr(self, entry, tracer.wrap(call, entry, "semiring") if tracer else call)
        for entry in ("panel_row_update", "panel_col_update"):
            call = self._panel(getattr(inner, entry), row=entry == "panel_row_update")
            setattr(self, entry, tracer.wrap(call, entry, "semiring") if tracer else call)

    def reset(self) -> None:
        self.calls = 0
        self.flops = 0
        self.bytes_computed = 0

    def _count(self, m: int, n: int, k: int, itemsize: int) -> None:
        self.calls += 1
        self.flops += 2 * m * n * k
        # read A, B and C, write C - computed from shapes, not measured
        self.bytes_computed += (m * k + k * n + 2 * m * n) * itemsize

    def _product(self, inner_call):
        def call(c, a, b, *args, **kwargs):
            self._count(c.shape[0], c.shape[1], a.shape[1], c.itemsize)
            return inner_call(c, a, b, *args, **kwargs)

        return call

    def _panel(self, inner_call, row: bool):
        def call(panel, diag, *args, **kwargs):
            k = diag.shape[1] if row else diag.shape[0]
            self._count(panel.shape[0], panel.shape[1], k, panel.itemsize)
            return inner_call(panel, diag, *args, **kwargs)

        return call

    def srgemm_accumulate_paths(self, c, c_nxt, a, a_nxt, b, k_chunk=None):
        self._count(c.shape[0], c.shape[1], a.shape[1], c.itemsize)
        return self.inner.srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=k_chunk)

    def describe(self) -> str:
        return f"benchmark tracing proxy over: {self.inner.describe()}"


def tracing_backend(tracer: Optional[Tracer] = None) -> TracingBackend:
    return TracingBackend(get_backend("cnative"), tracer)


# -- analysis -----------------------------------------------------------------

class SpanTable:
    """Self times of one drained span list (normally one traced round)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.duration = np.fromiter((s[END] - s[START] for s in spans), float, n)
        covered = np.zeros(n)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += self.duration[i]
        self.self_time = self.duration - covered
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s[NAME], []).append(i)

    def _idx(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self._idx(name))

    def total(self, name: str, self_only: bool = True) -> float:
        values = self.self_time if self_only else self.duration
        return float(values[self._idx(name)].sum()) if self._idx(name) else 0.0

    def percentile(self, name: str, q: float, self_only: bool = True) -> float:
        idx = self._idx(name)
        if not idx:
            return 0.0
        values = self.self_time if self_only else self.duration
        return float(np.percentile(values[idx], q))

    def layer_total(self, layer: str) -> float:
        idx = [i for i, s in enumerate(self.spans) if s[LAYER] == layer]
        return float(self.self_time[idx].sum()) if idx else 0.0

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_time):
            out[s[LAYER]] = out.get(s[LAYER], 0.0) + float(t)
        return out

    def root_duration(self) -> float:
        roots = [i for i, s in enumerate(self.spans) if s[PARENT] < 0]
        return float(self.duration[roots].sum())

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Summed duration of ``child_name`` spans that have a
        ``parent_name`` ancestor."""
        total = 0.0
        for i in self._idx(child_name):
            p = self.spans[i][PARENT]
            while p >= 0:
                if self.spans[p][NAME] == parent_name:
                    total += self.duration[i]
                    break
                p = self.spans[p][PARENT]
        return total

    def to_json(self, limit: int) -> dict:
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "layer", "start_s", "end_s", "parent", "op_id"],
            "truncated": len(self.spans) > limit,
            "span_count": len(self.spans),
            "spans": [
                [s[NAME], s[LAYER], s[START] - t0, s[END] - t0, s[PARENT], s[OP]]
                for s in self.spans[:limit]
            ],
            "layer_self_s": self.layer_self_times(),
            "root_s": self.root_duration(),
        }
