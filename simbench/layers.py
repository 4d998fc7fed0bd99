"""Per-layer tracing of the simulator, installed from outside.

The simulator carries no span instrumentation of its own, so the
benchmark wraps each layer's entry points before any simulator object
is built.  Wrappers go on the class (or on the module attribute the
caller looks up), so the bound methods the engine caches at
construction time already point at them.

Each wrapped call is a span: a layer name, a start, an end and the
span that caused it (the innermost open span).  Holding every span of
a run would cost gigabytes, so each span is folded into its totals the
moment it closes:

* ``self_s[layer]``: span duration minus the part covered by child
  spans (the layer's self time);
* ``calls[entry]``: calls per wrapped entry point;
* ``edges[(parent, layer)]``: calls and total seconds per caller layer,
  which is the span tree collapsed by layer.

Summed over every layer, self time equals the time spent inside
top-level spans exactly, so the layers account for the whole traced
wall time apart from code that runs outside any span.

Campaign cells run in forked pool workers.  Given a ``dump_dir``,
:meth:`Tracer.install` also wraps the pool's worker initializer: each
worker resets the state it inherited and writes its totals there when
it exits, and :meth:`Tracer.collect_workers` folds them back in.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> entry points, each ``(module, "Class.method")`` or
#: ``(module, "function")``.  A module-level function is wrapped in
#: the module that calls it (``sweet_spot`` is imported by name into
#: the runner).  Methods are wrapped in the class that defines them,
#: so an inherited method keeps its identity (the SM compares scheme
#: hooks with their base-class defaults to detect inert stacks).
LAYER_MAP: Dict[str, Tuple[Tuple[str, str], ...]] = {
    # Building the GPU (its SMs, memory and caches) is set-up, kept
    # apart from the cycle loop so no run-time layer absorbs it.
    "sim.build": (
        ("repro.sim.engine", "GPU.__init__"),
    ),
    "sim.engine": (
        ("repro.sim.engine", "GPU.run"),
    ),
    "sim.sm": (
        ("repro.sim.sm", "StreamingMultiprocessor.tick"),
        ("repro.sim.sm", "StreamingMultiprocessor._on_meminst_complete"),
    ),
    "sim.scheduler": (
        ("repro.sim.scheduler", "WarpScheduler.select"),
    ),
    "sim.lsu": (
        ("repro.sim.lsu", "LoadStoreUnit.tick"),
        ("repro.sim.lsu", "LoadStoreUnit._tick_pooled"),
    ),
    "mem": (
        ("repro.mem.subsystem", "MemorySubsystem.tick"),
        ("repro.mem.subsystem", "MemorySubsystem.skip_cycles"),
        ("repro.mem.subsystem", "MemorySubsystem.leapable"),
        ("repro.mem.subsystem", "PooledMemorySubsystem.tick"),
        ("repro.mem.subsystem", "PooledMemorySubsystem.leapable"),
        ("repro.mem.cache", "L1DCache.access"),
        ("repro.mem.cache", "PooledL1DCache.access_slot"),
    ),
    "core": (
        ("repro.core.bmi", "MemIssuePolicy.note_mem_inst"),
        ("repro.core.bmi", "MemIssuePolicy.note_request"),
        ("repro.core.bmi", "UnmanagedIssue.pick"),
        ("repro.core.bmi", "RoundRobinBMI.pick"),
        ("repro.core.bmi", "QuotaBMI.pick"),
        ("repro.core.bmi", "QuotaBMI.note_mem_inst"),
        ("repro.core.bmi", "QuotaBMI.note_request"),
        ("repro.core.bmi", "QuotaBMI._replenish"),
        ("repro.core.mil", "MemInstLimiter.note_request"),
        ("repro.core.mil", "MemInstLimiter.note_rsfail"),
        ("repro.core.mil", "MemInstLimiter.observe_inflight"),
        ("repro.core.mil", "NoLimit.can_issue"),
        ("repro.core.mil", "StaticLimiter.can_issue"),
        ("repro.core.mil", "DynamicLimiter.can_issue"),
        ("repro.core.mil", "DynamicLimiter.note_request"),
        ("repro.core.mil", "DynamicLimiter.note_rsfail"),
        ("repro.core.mil", "DynamicLimiter.observe_inflight"),
        ("repro.core.mil", "GlobalLimiterView.can_issue"),
        ("repro.core.mil", "GlobalLimiterView.note_request"),
        ("repro.core.mil", "GlobalLimiterView.note_rsfail"),
        ("repro.core.mil", "GlobalLimiterView.observe_inflight"),
        ("repro.core.arbiter", "SMKQuotaGate.can_issue"),
        ("repro.core.arbiter", "SMKQuotaGate.note_issue"),
        ("repro.core.arbiter", "SMKQuotaGate.maybe_reset"),
    ),
    "workloads.trace": (
        ("repro.workloads.trace", "KernelTrace._compile_chunk"),
        ("repro.workloads.trace", "KernelTrace._load_chunk"),
        ("repro.workloads.trace", "KernelTrace._store_chunk"),
    ),
    "cke": (
        ("repro.harness.runner", "sweet_spot"),
    ),
    "harness": (
        ("repro.harness.runner", "ExperimentRunner.isolated"),
        ("repro.harness.runner", "ExperimentRunner._run_isolated"),
        ("repro.harness.runner", "ExperimentRunner.curve"),
        ("repro.harness.runner", "ExperimentRunner._run"),
        ("repro.harness.parallel", "execute_job"),
    ),
    "obs": (
        ("repro.sim.sm", "StreamingMultiprocessor._obs_account"),
        ("repro.obs.timeline", "PhaseSampler.on_cycle"),
        ("repro.obs.timeline", "PhaseSampler.log_adapt"),
        ("repro.obs.collector", "Observability.report"),
        ("repro.obs.collector", "Observability.lsu_rsfail"),
        ("repro.obs.collector", "Observability.issue_event"),
        ("repro.obs.collector", "Observability.mem_request_created"),
        ("repro.obs.collector", "Observability.mem_request_l1"),
        ("repro.obs.collector", "Observability.mem_request_stage"),
        ("repro.obs.collector", "Observability.mem_request_done"),
        ("repro.obs.collector", "Observability.mil_update"),
        ("repro.obs.collector", "Observability.qbmi_replenish"),
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MAP)

#: the pool's per-worker initializer, wrapped so forked campaign
#: workers report their spans back.
WORKER_INIT = ("repro.harness.parallel", "_init_worker")

#: entries whose first argument is summed as well as counted:
#: ``GPU.run`` is handed the cycles to simulate and the engine's
#: batched leap hands ``skip_cycles`` the cycles it leapt.
SUMMED = {
    "repro.sim.engine.GPU.run": "cycles_run",
    "repro.mem.subsystem.MemorySubsystem.skip_cycles": "cycles_leapt",
}

#: the process-wide counters the trace cache keeps.
TRACE_COUNTERS = ("trace_cache.chunk_compiles", "trace_cache.disk_hits",
                  "trace_cache.disk_writes")

ROOT = "-"


def resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` for one entry point;
    raises ``AttributeError`` naming the entry when it is gone, so a
    rename upstream fails loudly instead of dropping a layer."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{module_name}.{path} is not defined")
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _trace_counters() -> Dict[str, int]:
    from repro.obs import process_registry
    snap = process_registry().snapshot()
    return {name: int(snap.get(name, 0)) for name in TRACE_COUNTERS}


class Tracer:
    """Span totals for one process, plus the wrappers that feed them."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.dump_dir = dump_dir
        self._saved: List[Tuple[object, str, object]] = []
        # The wrappers hold these containers, so reset() clears them in
        # place rather than replacing them.
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.edges: Dict[Tuple[str, str], list] = {}
        self.sums: Dict[str, int] = {}
        # Each open span is [layer, seconds covered by its children];
        # the sentinel collects the time top-level spans cover.
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Zero every total (a forked worker starts from here)."""
        self.self_s.clear()
        self.self_s.update((layer, 0.0) for layer in LAYERS)
        self.calls.clear()
        self.edges.clear()
        self._stack[:] = [[ROOT, 0.0]]
        self.sums.clear()
        self.sums.update((name, 0) for name in SUMMED.values())
        self._counter_base = _trace_counters()

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        edges = self.edges
        sums = self.sums
        summed = SUMMED.get(entry)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                self_s[layer] += duration - frame[1]
                calls[entry] = calls.get(entry, 0) + 1
                edge = edges.get((parent[0], layer))
                if edge is None:
                    edges[(parent[0], layer)] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
                if summed is not None:
                    sums[summed] += args[1]

        return functools.wraps(fn)(span)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_MAP`, and the worker
        initializer when there is a ``dump_dir`` for worker totals.
        Call before building any simulator object."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYER_MAP.items():
            for module_name, path in entries:
                owner, name, fn = resolve(module_name, path)
                self._saved.append((owner, name, fn))
                setattr(owner, name,
                        self._wrap(layer, f"{module_name}.{path}", fn))
        if self.dump_dir is not None:
            owner, name, init = resolve(*WORKER_INIT)
            self._saved.append((owner, name, init))
            setattr(owner, name, self._worker_init(init))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _worker_init(self, init: Callable) -> Callable:
        # Workers see this closure and the installed wrappers only when
        # the pool forks them (spawned workers would import afresh).
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("worker tracing needs the fork start method")

        def traced_init(*args, **kwargs):
            self.reset()
            path = os.path.join(self.dump_dir,
                                f"spans-{uuid.uuid4().hex}.json")
            # Runs in the worker's exit path after its job loop.
            multiprocessing.util.Finalize(self, self.dump, args=(path,),
                                          exitpriority=10)
            return init(*args, **kwargs)
        return traced_init

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Trace-cache counter deltas since :meth:`reset`."""
        now = _trace_counters()
        return {name: now[name] - self._counter_base[name]
                for name in TRACE_COUNTERS}

    def totals(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "edges": [[parent, layer, int(calls), seconds]
                      for (parent, layer), (calls, seconds)
                      in self.edges.items()],
            "sums": dict(self.sums),
            "counters": self.counters(),
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh)
        os.replace(tmp, path)

    def collect_workers(self) -> int:
        """Fold every worker dump in ``dump_dir`` into this tracer's
        totals and delete it; returns the number of dumps folded."""
        if self.dump_dir is None:
            return 0
        folded = 0
        for name in sorted(os.listdir(self.dump_dir)):
            if not (name.startswith("spans-") and name.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                self.merge(json.load(fh))
            os.unlink(path)
            folded += 1
        return folded

    def merge(self, other: Dict[str, object]) -> None:
        """Add one dumped :meth:`totals` into this tracer's."""
        for layer, seconds in other["self_s"].items():
            self.self_s[layer] += seconds
        for entry, calls in other["calls"].items():
            self.calls[entry] = self.calls.get(entry, 0) + calls
        for parent, layer, calls, seconds in other["edges"]:
            edge = self.edges.setdefault((parent, layer), [0, 0.0])
            edge[0] += calls
            edge[1] += seconds
        for name, value in other["sums"].items():
            self.sums[name] += value
        # Worker counters are deltas already; shifting the base keeps
        # counters() equal to this process's delta plus the workers'.
        for name, value in other["counters"].items():
            self._counter_base[name] -= value
