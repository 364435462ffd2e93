"""Outside-in layer spans and exact call counts for one simulation run.

Nothing here edits the simulator.  :class:`Tracer` replaces public boundary
callables with timing wrappers: instance attributes, set before ``run()``,
on the objects a built simulator holds (MMU, translation backend, Victima
controller, walkers, cache hierarchy, workload streams), plus one class
attribute, ``VectorEngine.process_batch``, set for the duration of ``run()``
because the SoA engine is built inside it.  Every wrapper records a span
(its layer name, its parent span, its duration) into per-name aggregates, so
the self time of a layer is its span time minus the time its child spans
cover.  The root span
is the ``run()`` call itself; its self time is the un-spanned remainder, the
simulator's own loop.  By construction all self times sum to the root's wall
time, which :meth:`Tracer.accounting_error` checks.

:func:`profile_calls` turns a :mod:`cProfile` profile into exact Python call
counts per ``repro`` package.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, Tuple

ROOT_SPAN = "sim.run"

_DONE = object()


class Tracer:
    """Span aggregates keyed by span name (``layer`` or ``layer:operation``)."""

    def __init__(self) -> None:
        #: Open spans, innermost last; a frame is ``[child_seconds, name]``.
        self._stack = [[0.0, ROOT_SPAN]]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``(parent, child) -> calls``: the parent links of every span.
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.wall_s = 0.0

    # -- wrappers --------------------------------------------------------- #
    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one ``name`` span."""
        stack, self_s, calls, edges = self._stack, self.self_s, self.calls, self.edges
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                parent[0] += elapsed
                calls[name] += 1
                edges[parent[1], name] += 1

        return spanned

    def span_batches(self, name: str, make_batches: Callable) -> Callable:
        """A ``bounded_batches``-style generator function whose every
        ``next()`` (the production of one batch) records one ``name`` span."""
        stack, self_s, calls, edges = self._stack, self.self_s, self.calls, self.edges
        clock = time.perf_counter

        def spanned(*args, **kwargs) -> Iterator:
            batches = make_batches(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, name]
                stack.append(frame)
                start = clock()
                try:
                    batch = next(batches, _DONE)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[name] += elapsed - frame[0]
                    parent[0] += elapsed
                    edges[parent[1], name] += 1
                if batch is _DONE:
                    return
                calls[name] += 1
                yield batch

        return spanned

    def count_batches(self, name: str, make_batches: Callable) -> Callable:
        """A ``bounded_batches``-style generator function whose batches are
        counted as ``name`` calls, without opening a span."""
        calls = self.calls

        def counted(*args, **kwargs) -> Iterator:
            for batch in make_batches(*args, **kwargs):
                calls[name] += 1
                yield batch

        return counted

    # -- the root span ------------------------------------------------------ #
    def run(self, simulator):
        """Call ``simulator.run()`` as the root span and return its result.

        ``VectorEngine.process_batch`` is spanned as a class attribute for the
        duration of the call: the SoA engine is built inside ``run()``.
        """
        from repro.sim.soa import VectorEngine

        original = VectorEngine.__dict__["process_batch"]
        VectorEngine.process_batch = self.span("sim.soa", original)
        root = self._stack[0]
        start = time.perf_counter()
        try:
            result = simulator.run()
        finally:
            self.wall_s = time.perf_counter() - start
            VectorEngine.process_batch = original
        self.self_s[ROOT_SPAN] += self.wall_s - root[0]
        self.calls[ROOT_SPAN] += 1
        return result

    def accounting_error(self) -> float:
        """|sum of every span's self time - root wall time| in seconds."""
        return abs(sum(self.self_s.values()) - self.wall_s)

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span of ``layer`` (``layer`` or ``layer:*``)."""
        return sum((seconds for name, seconds in self.self_s.items()
                    if name.split(":", 1)[0] == layer), 0.0)

    # -- instrumentation ------------------------------------------------------ #
    def instrument(self, simulator) -> None:
        """Wrap every layer boundary of a built (not yet run) simulator."""
        simulator.prefault = self.span("sim.prefault", simulator.prefault)
        system = simulator.system
        system.memory_manager.prefault_range = self.span(
            "memory.prefault", system.memory_manager.prefault_range)
        nested = getattr(system, "nested_walker", None)
        if nested is not None:
            nested.host_vmm.prefault_range = self.span(
                "memory.prefault", nested.host_vmm.prefault_range)
        backend = getattr(system, "backend", None)
        if backend is not None:
            backend.warm_start = self.span("backends.warm_start", backend.warm_start)

        cores = getattr(system, "cores", None) or [system]
        for core in cores:
            self._instrument_core(core)
        workloads = getattr(simulator, "core_workloads", None) or [simulator.workload]
        for workload in workloads:
            if workload is not None:
                self._instrument_workload(workload)
                # The batches the simulator loop consumes.
                workload.bounded_batches = self.count_batches(
                    "sim.batches", workload.bounded_batches)

    def _instrument_core(self, core) -> None:
        """Wrap one core's MMU, backend, Victima, walkers and caches."""
        span = self.span
        mmu = core.mmu
        if hasattr(mmu, "translate_data"):
            mmu.translate_data = span("mmu.translate", mmu.translate_data)
        mmu.translate = span("mmu.translate", mmu.translate)
        mmu.backend.translate = span("backends.translate", mmu.backend.translate)

        hierarchy = core.hierarchy
        hierarchy.access = span("cache.access", hierarchy.access)
        hierarchy.access_for_ptw = span("cache.ptw_access", hierarchy.access_for_ptw)

        walkers = {id(core.walker): core.walker}
        victima = core.victima
        if victima is not None:
            victima.probe = span("core.victima:probe", victima.probe)
            victima.probe_nested = span("core.victima:probe", victima.probe_nested)
            for hook in ("on_l2_tlb_miss", "on_l2_tlb_eviction",
                         "on_nested_tlb_miss", "on_nested_tlb_eviction"):
                setattr(victima, hook, span("core.victima:insert", getattr(victima, hook)))
            # The controller's L2 operations are TLB-block lookups and fills:
            # cache-layer work, so they are spanned as such.
            victima.l2_cache = _SpannedCache(victima.l2_cache, self,
                                             "cache.access:tlb_block")
            walkers[id(victima.walker)] = victima.walker
        nested = getattr(core, "nested_walker", None)
        if nested is not None:
            nested.walk = span("virt.nested_walk", nested.walk)
            walkers[id(nested.host_walker)] = nested.host_walker
        for walker in walkers.values():
            walker.walk = span("mmu.walk", walker.walk)

    def _instrument_workload(self, workload) -> None:
        """Span batch production; ``repro.traces`` combinators are their own
        layer, their leaf generators are ``workloads``."""
        components = getattr(workload, "components", ())
        layer = ("traces.mix" if type(workload).__module__.startswith("repro.traces")
                 else "workloads.gen")
        workload.bounded_batches = self.span_batches(layer, workload.bounded_batches)
        for component in components:
            self._instrument_workload(component)


class _SpannedCache:
    """A cache handle whose probe/fill operations record spans; every other
    attribute reads through to the wrapped :class:`~repro.cache.cache.Cache`."""

    def __init__(self, cache, tracer: Tracer, name: str):
        self._cache = cache
        for op in ("lookup", "contains", "insert", "invalidate"):
            setattr(self, op, tracer.span(name, getattr(cache, op)))

    def __getattr__(self, attr):
        return getattr(self._cache, attr)


def profile_calls(profiler, src_dir: str) -> Dict[str, int]:
    """Python calls per top-level ``repro`` package (or module) in a profile."""
    import pstats

    package_root = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
    counts: Dict[str, int] = defaultdict(int)
    for (filename, _line, _func), (_cc, ncalls, _tt, _ct, _callers) in (
            pstats.Stats(profiler).stats.items()):
        path = os.path.abspath(filename)
        if not path.startswith(package_root):
            continue
        head = path[len(package_root):].split(os.sep, 1)[0]
        counts[os.path.splitext(head)[0]] += ncalls
    return dict(counts)
