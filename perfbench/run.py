#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload gups_victima --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
Each run simulates one workload's scenario again and again, in this one
single-threaded process, through the public ``repro.api`` (build the
simulator, then ``run()``; no result cache), until ``--seconds`` are spent.
Every repetition is checked (accounting invariants and a digest of the whole
result, which must not vary between repetitions).

``--trace 0`` reports the end-to-end metrics: medians over the repetitions
of refs/s of the simulation phase, set-up seconds, and the peak RSS.
``--trace 1`` spends the time on untraced repetitions, then repetitions with
layer spans (see ``tracing.py``), then one profiled repetition for exact call
counts, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workload rationale and noise notes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1

#: One scenario per workload; the seed is filled in per run.  Why each was
#: chosen, and which layers it should and should not load, is recorded in
#: BENCHMARK.json and README.md.
SCENARIOS = {
    # Victima x GUPS: ~every other reference misses the L2 TLB and is served
    # by a TLB block in the L2 cache; the walker is nearly idle.
    "gups_victima": {"system": "victima", "workload": "rnd", "max_refs": 40_000},
    # L1-resident GUPS on the radix baseline: no L2 TLB misses, no walks;
    # the only workload on which the SoA engine engages.
    "gups_l1": {"system": "radix", "max_refs": 400_000,
                "workload": {"workload": "rnd",
                             "params": {"table_bytes": 16384, "index_bytes": 8192,
                                        "index_fraction": 0.5}}},
    # BFS under nested paging: 2-D walks dominate; guest+host prefault and
    # shadow installs make set-up about a third of the wall time.
    "bfs_nested": {"system": "nested_paging", "workload": "bfs", "max_refs": 80_000},
    # Two pinned cores (the shape of the built-in two_core_pinned scenario):
    # the only workload through the multi-core scheduler.
    "mix_2core": {"system": "victima", "num_cores": 2, "max_refs": 40_000,
                  "workload": {"tenants": [{"workload": "bfs", "core": 0},
                                           {"workload": "rnd", "core": 1}]}},
}

#: Packages whose Python calls per reference are reported (the hot path).
CALL_PACKAGES = ("sim", "workloads", "traces", "mmu", "backends", "core",
                 "cache", "memory", "virt", "common")

#: Calibration kernel size; its time at the nominal host speed (about the
#: fast state of a 2.1 GHz Xeon VM); the shortest simulation slice between
#: two kernel timings.
KERNEL_OPS = 20_000
NOMINAL_KERNEL_S = 0.003
SLICE_S = 0.05

#: Share of ``--seconds`` a traced run spends on untraced and on traced
#: repetitions; the profiled repetition comes on top.
TRACE_SPLIT = 0.4


def load_api():
    """Import ``repro.api`` from this checkout's ``src/`` (never elsewhere)."""
    package = os.path.join(SRC, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise RuntimeError(f"no simulator sources at {package}; run from a checkout")
    # One thread per run: numpy must not start a BLAS thread pool, and no
    # result cache or process pool may be involved.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_CACHE_DIR", "REPRO_JOBS"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    import repro
    from repro import api

    if not os.path.abspath(repro.__file__).startswith(package + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {package}")
    return api


# --------------------------------------------------------------------------- #
# One repetition
# --------------------------------------------------------------------------- #
class NominalClock:
    """Host time of one repetition's phases, also scaled to a nominal speed.

    The host's speed switches between a fast and a slow state within a
    second and drifts over minutes (see README.md), so a calibrated clock
    times a fixed kernel before set-up, right after it, and at the first
    batch boundary at least :data:`SLICE_S` after the previous timing
    (garbage collection off; kernel time is in no phase).  Set-up is scaled
    by ``NOMINAL_KERNEL_S`` over the mean of the kernels either side of it,
    and each slice of the simulation phase by ``NOMINAL_KERNEL_S`` over the
    kernel just before it: the time the work would take on a host where the
    kernel takes :data:`NOMINAL_KERNEL_S`.  An uncalibrated clock (traced and
    profiled repetitions) times the phases whole.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.setup_s = self.scaled_setup_s = 0.0
        self.sim_s = self.scaled_sim_s = 0.0
        self._calibrate()

    def end_setup(self) -> None:
        self.setup_s = time.perf_counter() - self._mark
        before = self._kernel_s
        self._calibrate()
        self.scaled_setup_s = self.setup_s * 2 * NOMINAL_KERNEL_S / (before + self._kernel_s)

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= SLICE_S:
            self.stop()
            self._calibrate()

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._mark
        self.sim_s += elapsed
        self.scaled_sim_s += elapsed * NOMINAL_KERNEL_S / self._kernel_s

    def _calibrate(self) -> None:
        self._kernel_s = kernel_seconds() if self.calibrated else NOMINAL_KERNEL_S
        self._mark = time.perf_counter()

    def ticking(self, make_batches):
        """``make_batches`` (a ``bounded_batches``) with a tick per batch."""
        def ticked(*args, **kwargs):
            for batch in make_batches(*args, **kwargs):
                self.tick()
                yield batch

        return ticked


def kernel_seconds() -> float:
    """Host seconds of a fixed pure-Python dict/int loop (no repro code)."""
    gc.disable()
    try:
        table = {}
        acc = 0
        start = time.perf_counter()
        for i in range(KERNEL_OPS):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Rep:
    """Timings, result and check outcome of one simulation."""

    def __init__(self, clock, refs, result, failures, tracer=None):
        self.clock = clock
        self.refs = refs
        self.result = result
        self.failures = failures
        self.tracer = tracer
        self.digest = hashlib.sha256(json.dumps(
            result.to_json_dict(), sort_keys=True).encode()).hexdigest()

    @property
    def refs_per_s(self) -> float:
        return self.refs / self.clock.sim_s

    @property
    def nominal_refs_per_s(self) -> float:
        return self.refs / self.clock.scaled_sim_s


def run_once(api, spec, tracer=None, profiler=None) -> Rep:
    """Build and run one simulation; set-up ends at the end of prefault."""
    gc.collect()  # each repetition starts from the same heap, not the last one's garbage
    clock = NominalClock(calibrated=tracer is None and profiler is None)
    simulator = api.build_simulator(spec)
    workloads = getattr(simulator, "core_workloads", None) or [simulator.workload]
    prefault = simulator.prefault

    def timed_prefault():
        mapped = prefault()
        clock.end_setup()
        if profiler is not None:
            profiler.enable()
        return mapped

    simulator.prefault = timed_prefault
    if clock.calibrated:
        for workload in workloads:
            if workload is not None:
                workload.bounded_batches = clock.ticking(workload.bounded_batches)
    if tracer is not None:
        tracer.instrument(simulator)
        result = tracer.run(simulator)
    else:
        result = simulator.run()
    clock.stop()
    if profiler is not None:
        profiler.disable()

    budgets = [w.config.max_refs for w in workloads if w is not None]
    failures = check_result(result, budgets, simulator.warmup_fraction,
                            getattr(simulator.system, "is_virtualized", False))
    if tracer is not None and tracer.accounting_error() > 1e-6 * tracer.wall_s:
        failures.append(f"span self times miss the traced wall time by "
                        f"{tracer.accounting_error():.3g} s")
    return Rep(clock, sum(budgets), result, failures, tracer)


def check_result(result, budgets, warmup_fraction, virtualized):
    """Accounting invariants of one result; returns the violated ones."""
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    refs = result.memory_refs
    expect(refs == sum(b - int(b * warmup_fraction) for b in budgets),
           f"memory_refs {refs} != measured budget")
    levels = result.data_access_levels
    expect(sum(levels.values()) == refs, "sum(data_access_levels) != memory_refs")
    expect(result.data_l2_misses == levels.get("L3", 0) + levels.get("DRAM", 0),
           "data_l2_misses != L3 + DRAM accesses")
    expect(result.instructions > refs and math.isfinite(result.cycles)
           and result.cycles > 0, "instructions/cycles out of range")
    expect(0 <= result.translation_cycles <= result.cycles,
           "translation_cycles outside [0, cycles]")
    if not virtualized:
        served = result.served_by
        expect(sum(served.values()) == refs, "sum(served_by) != memory_refs")
        expect(result.l2_tlb_misses == refs - served.get("l1_tlb", 0) - served.get("l2_tlb", 0),
               "l2_tlb_misses != references not served by the L1/L2 TLBs")
        expect(result.page_walks == served.get("page_walk", 0),
               "page_walks != served_by[page_walk]")
    if result.per_core:
        for field in ("instructions", "memory_refs", "l1_tlb_misses",
                      "l2_tlb_misses", "page_walks", "data_l2_misses"):
            expect(sum(getattr(core, field) for core in result.per_core)
                   == getattr(result, field), f"per-core {field} != aggregate")
    return failures


def repeat(api, spec, seconds, min_reps, make_tracer=None):
    """Repetitions until the next one would end after ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_once(api, spec, tracer=make_tracer() if make_tracer else None))
        rep_s = time.perf_counter() - rep_start
        if len(reps) >= min_reps and time.perf_counter() - start + rep_s > seconds:
            return reps


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def end_to_end(reps):
    for name, values in (
            ("refs_per_s at nominal speed", [r.nominal_refs_per_s for r in reps]),
            ("refs_per_s as timed", [r.refs_per_s for r in reps]),
            ("setup_s at nominal speed", [r.clock.scaled_setup_s for r in reps]),
            ("setup_s as timed", [r.clock.setup_s for r in reps])):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        print(f"  {name}: median {statistics.median(values):.6g}  "
              f"quartiles {q1:.6g} .. {q3:.6g}  (n={len(values)} repetitions)")
    return {
        "refs_per_s": (statistics.median(r.nominal_refs_per_s for r in reps), "refs/s"),
        "setup_s": (statistics.median(r.clock.scaled_setup_s for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced, profiled_refs, call_counts):
    """Per-layer metrics: medians over traced repetitions, exact counts."""
    def per_rep(rep):
        tracer, refs = rep.tracer, rep.refs
        us = 1e6 / refs

        def calls(name):
            return tracer.calls.get(name, 0)

        batches = calls("sim.batches")
        return {
            "workloads.gen_us_per_ref": (tracer.layer_self_s("workloads.gen") * us, "us/ref"),
            "traces.mix_us_per_ref": (tracer.layer_self_s("traces.mix") * us, "us/ref"),
            "sim.loop_us_per_ref": (tracer.layer_self_s("sim.run") * us, "us/ref"),
            "sim.soa_us_per_ref": (tracer.layer_self_s("sim.soa") * us, "us/ref"),
            "sim.soa_batch_share": (calls("sim.soa") / batches if batches else 0.0,
                                    "fraction"),
            "mmu.translate_us_per_ref": (tracer.layer_self_s("mmu.translate") * us, "us/ref"),
            "backends.translate_us_per_ref": (
                tracer.layer_self_s("backends.translate") * us, "us/ref"),
            "backends.translate_per_ref": (calls("backends.translate") / refs, "calls/ref"),
            "core.victima_us_per_ref": (tracer.layer_self_s("core.victima") * us, "us/ref"),
            "core.victima_probes_per_ref": (calls("core.victima:probe") / refs, "probes/ref"),
            "mmu.walk_us_per_ref": (tracer.layer_self_s("mmu.walk") * us, "us/ref"),
            "mmu.walks_per_ref": (calls("mmu.walk") / refs, "walks/ref"),
            "virt.nested_walk_us_per_ref": (
                tracer.layer_self_s("virt.nested_walk") * us, "us/ref"),
            "cache.access_us_per_ref": (tracer.layer_self_s("cache.access") * us, "us/ref"),
            "cache.ptw_access_us_per_ref": (
                tracer.layer_self_s("cache.ptw_access") * us, "us/ref"),
            "memory.prefault_s": (tracer.layer_self_s("memory.prefault"), "s"),
            "backends.warm_start_s": (tracer.layer_self_s("backends.warm_start"), "s"),
        }

    rows = [per_rep(rep) for rep in traced]
    metrics = {name: (statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    untraced_rate = statistics.median(r.refs_per_s for r in untraced)
    traced_rate = statistics.median(r.refs_per_s for r in traced)
    metrics["trace.overhead"] = (traced_rate / untraced_rate, "ratio")
    print(f"  refs_per_s as timed: untraced median {untraced_rate:.6g} "
          f"(n={len(untraced)}), traced median {traced_rate:.6g} (n={len(traced)})")

    for package in CALL_PACKAGES:
        metrics[f"{package}.py_calls_per_ref"] = (
            call_counts.get(package, 0) / profiled_refs, "calls/ref")

    result = untraced[0].result
    refs = result.memory_refs
    metrics.update({
        "model.cycles_per_ref": (result.cycles / refs, "cycles/ref"),
        "model.l2_tlb_mpki": (result.l2_tlb_mpki, "misses/kinstr"),
        "model.page_walks_per_kref": (1000.0 * result.page_walks / refs, "walks/kref"),
        "model.ptw_mean_latency": (result.ptw_mean_latency, "cycles"),
        "model.translation_cycle_fraction": (result.translation_cycle_fraction, "fraction"),
        "model.l2_cache_mpki": (result.l2_cache_mpki, "misses/kinstr"),
    })

    print(f"  traced wall {traced[0].tracer.wall_s:.4f} s = sum of span self times "
          f"(error {traced[0].tracer.accounting_error():.2e} s); spans by self time:")
    tracer = traced[0].tracer
    parents = {}
    for (parent, child), _ in tracer.edges.items():
        parents.setdefault(child, set()).add(parent)
    for name, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<26} self {seconds:9.4f} s  calls {tracer.calls.get(name, 0):>9}"
              f"  parents {','.join(sorted(parents.get(name, ()))) or '-'}")
    print("  python calls per package (profiled repetition): "
          + ", ".join(f"{k}={v}" for k, v in sorted(call_counts.items())))
    return metrics


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        api = load_api()
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: cannot load the simulator: {exc}", file=sys.stderr)
        return 2

    spec = dict(SCENARIOS[args.workload], name=args.workload, seed=args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        import cProfile

        from tracing import Tracer, profile_calls

        untraced = repeat(api, spec, args.seconds * TRACE_SPLIT, min_reps=1)
        traced = repeat(api, spec, args.seconds * TRACE_SPLIT, min_reps=1,
                        make_tracer=Tracer)
        profiler = cProfile.Profile()
        profiled = run_once(api, spec, profiler=profiler)
        reps = untraced + traced + [profiled]
        metrics = per_layer(untraced, traced, profiled.refs,
                            profile_calls(profiler, SRC))
    else:
        reps = repeat(api, spec, args.seconds, min_reps=3)
        metrics = end_to_end(reps)

    reference = reps[0].digest
    failed = 0
    for index, rep in enumerate(reps):
        if rep.digest != reference:
            rep.failures.append(f"result digest {rep.digest[:16]} != {reference[:16]}")
        for failure in rep.failures:
            print(f"  CHECK FAILED (repetition {index}): {failure}")
        failed += bool(rep.failures)
    print(f"  result digest {reference}  ({len(reps)} repetitions, {failed} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
