"""One benchmark sample, measured in a fresh interpreter.

``run.py`` starts this script once per sample::

    python3 simbench/sample.py WORKLOAD SEED T0 TMPDIR [--traced]
        [--expected PATH]

``T0`` is the parent's ``time.monotonic()`` just before the start, so
``setup_s`` covers interpreter start, ``import repro`` and building
the config, runner and GPU.  ``TMPDIR`` is this sample's own scratch
directory (the campaign's result and trace cache lives there).  The
sample prints one JSON object as its last line: timings, the simulated
outputs, and the outcome of every output check.

Checks, counted one per simulated run (cells) or per campaign cell:

* every run is compared with the stored statistics in ``--expected``
  when ``SEED`` is :data:`DEFAULT_SEED`;
* for any seed: a warm repeat equals the cold run, an observed run
  equals the same input unobserved, its issue-slot stall shares sum to
  cycles x SMs x schedulers, and campaign pass 2 equals pass 1.
"""

import gc
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: the seed the stored expected statistics cover.
DEFAULT_SEED = 0

#: the paper's Table-1 machine, an even 8/8 TB split per SM and the
#: QBMI+DMIL stack, run for a fixed window from empty caches.
CELLS = {
    "cell-mm": {"kernels": ("cd", "sv"), "cycles": 6000, "observed": False},
    "cell-cc": {"kernels": ("dc", "pf"), "cycles": 3000, "observed": False},
    "stalls-mm": {"kernels": ("cd", "sv"), "cycles": 1000, "observed": True},
}
TB_SPLIT = (8, 8)
PROBE_LOOPS = 5
PHASE_INTERVAL = 256

#: the scheme-ablation grid of Figure 12 on one mix per class, run on
#: ``scaled_config()`` with Warped-Slicer curves.
CAMPAIGN = {
    "mixes": (("dc", "pf"), ("st", "sv"), ("cd", "sv")),
    "schemes": ("ws", "ws-qbmi", "ws-dmil", "ws-qbmi+dmil"),
    "iso_cycles": 3000,
    "curve_cycles": 2000,
    "concurrent_cycles": 4000,
    "workers": 2,
}

WORKLOADS = tuple(CELLS) + ("campaign",)


def plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def params(workload: str) -> dict:
    """The settings a workload's expected statistics depend on."""
    if workload == "campaign":
        settings = {k: v for k, v in CAMPAIGN.items() if k != "workers"}
    else:
        settings = dict(CELLS[workload], tb_split=TB_SPLIT,
                        config="MAXWELL_CONFIG", stack="qbmi+dmil")
    return plain(settings)


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, label: str, problems) -> None:
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(problems)}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


def differs(label: str, got, want):
    return None if plain(got) == plain(want) else f"{label} differs"


# ----------------------------------------------------------------------
# cells
def build_cell(kernels, seed: int, obs):
    from repro import (MAXWELL_CONFIG, GPU, SchemeConfig, get_profile,
                       make_launches)
    profiles = [get_profile(name) for name in kernels]
    stack = SchemeConfig(
        bmi="qbmi", mil="dmil",
        qbmi_init_req_per_minst=tuple(p.reqs_per_minst for p in profiles))
    launches = make_launches(profiles, list(TB_SPLIT), MAXWELL_CONFIG,
                             seed=seed)
    return GPU(MAXWELL_CONFIG, launches, stack, obs=obs)


def observe_options():
    """What ``repro stalls`` and ``run --obs --phase-interval`` ask for."""
    from repro.obs import ObsOptions
    return ObsOptions(phase=True, phase_interval=PHASE_INTERVAL)


def probe_loops() -> list:
    """The times of :data:`PROBE_LOOPS` runs of a fixed pure-Python
    loop."""
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def host_probe(cpus: int = 1) -> list:
    """The host-speed probe: loop times of :func:`probe_loops`.
    Samples take it before, between and after their timed operations,
    because a shared host's speed can drift by tens of percent within
    a minute.

    With ``cpus`` > 1 the loops run in that many processes at once,
    one per CPU the timed operation keeps busy, and each loop's time
    is the harmonic mean over them: work spread over the CPUs finishes
    at the rate of their summed speeds."""
    children = []
    for _ in range(cpus - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(probe_loops(), fh)
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    runs = [probe_loops()]
    for pid, read_fd in children:
        with os.fdopen(read_fd) as fh:
            runs.append(json.load(fh))
        os.waitpid(pid, 0)
    return [len(loop) / sum(1.0 / t for t in loop) for loop in zip(*runs)]


def timed_run(gpu, cycles: int):
    start = time.perf_counter()
    result = gpu.run(cycles)
    return result, time.perf_counter() - start


def warp_insts(result) -> int:
    return sum(k.warp_insts for k in result.kernels.values())


def progress_problem(result):
    stalled = [name for name, k in zip(result.kernel_names,
                                       result.kernels.values())
               if k.warp_insts <= 0]
    return f"no instructions from {stalled}" if stalled else None


def stall_sum_problem(result):
    report = result.obs
    if report is None:
        return "observed run carries no report"
    total = sum(report.sched_stalls.values())
    if total != report.issue_slots():
        return (f"issue-slot stall shares sum to {total}, "
                f"not {report.issue_slots()}")
    return None


def cell_layer_metrics(result) -> dict:
    """Modelled per-layer counts of one run (simulated, not host)."""
    accesses = sum(result.l1d_accesses.values())
    return {
        "sim.lsu.stall_cycles": result.lsu_stall_cycles,
        "mem.l1d.accesses": accesses,
        "mem.l1d.misses": sum(result.l1d_misses.values()),
        "mem.l1d.rsfails": sum(result.l1d_rsfails.values()),
        "mem.l2.accesses": result.l2_accesses,
        "mem.l2.misses": result.l2_misses,
        "mem.dram.accesses": result.dram_accesses,
        "mem.dram.row_hits": result.dram_row_hit_rate * result.dram_accesses,
        "mem.icnt.flits": result.icnt_flits,
    }


def run_cell(workload: str, seed: int, t0: float, traced, expected,
             checks: Checks) -> dict:
    cell = CELLS[workload]
    kernels, cycles, observed = cell["kernels"], cell["cycles"], \
        cell["observed"]
    from repro.harness.perfbench import result_signature
    gpu = build_cell(kernels, seed, observe_options() if observed else None)
    setup_s = time.monotonic() - t0
    before = host_probe()
    cold, wall_s = timed_run(gpu, cycles)
    between = host_probe()
    signature = plain(result_signature(cold))
    out = {"setup_s": setup_s, "wall_s": wall_s,
           "sim_insts": warp_insts(cold),
           "observed": {"signature": signature},
           "probe_s": {"setup_s": before, "wall_s": before + between}}
    want = None if expected is None else expected["signature"]
    problems = [progress_problem(cold),
                want is not None and differs("statistics", signature, want)]
    if observed:
        problems.append(stall_sum_problem(cold))
    if traced is not None:
        # The traced run is compared with its untraced twin by run.py.
        checks.op(f"{workload} traced run", problems)
        out["layers"] = layer_metrics(traced, cell_layer_metrics(cold))
        return out
    # The warm run reuses the compiled traces, not the cold run's heap.
    gpu = None
    gc.collect()
    warm_gpu = build_cell(kernels, seed,
                          observe_options() if observed else None)
    warm, out["warm_wall_s"] = timed_run(warm_gpu, cycles)
    out["probe_s"]["warm_wall_s"] = between + host_probe()
    warm_problems = [differs("warm repeat", result_signature(warm),
                             signature)]
    if observed:
        # Observation must not change what is simulated.
        twin, twin_wall = timed_run(build_cell(kernels, seed, None), cycles)
        twin_signature = result_signature(twin)
        problems.append(differs("observed vs unobserved", signature,
                                twin_signature))
        warm_problems.append(stall_sum_problem(warm))
        out["obs_overhead_x"] = out["warm_wall_s"] / twin_wall
    checks.op(f"{workload} cold run", problems)
    checks.op(f"{workload} warm run", warm_problems)
    out["peak_rss_mb"] = peak_rss_mb(children=False)
    return out


# ----------------------------------------------------------------------
# campaign
def cell_outcome(outcome) -> list:
    """A campaign cell's expected fields: partition, WS, ANTT and
    fairness."""
    return plain([outcome.mix_name, outcome.scheme, outcome.partition,
                  outcome.weighted_speedup, outcome.antt,
                  outcome.fairness])


def run_campaign(seed: int, t0: float, tmp: str, traced, expected,
                 checks: Checks) -> dict:
    from repro import scaled_config
    from repro.harness.perfbench import outcome_signature
    from repro.harness.runner import ExperimentRunner, RunnerSettings
    from repro.workloads import trace as ktrace
    from repro.workloads.mixes import WorkloadMix
    from repro.workloads.profiles import get_profile
    settings = RunnerSettings(iso_cycles=CAMPAIGN["iso_cycles"],
                              curve_cycles=CAMPAIGN["curve_cycles"],
                              concurrent_cycles=CAMPAIGN["concurrent_cycles"],
                              seed=seed)
    mixes = [WorkloadMix(tuple(get_profile(name) for name in pair))
             for pair in CAMPAIGN["mixes"]]
    cache_dir = os.path.join(tmp, "cache")
    workers = CAMPAIGN["workers"]
    cpus = min(workers, os.cpu_count() or 1)
    # Both passes report heartbeats, as ``repro campaign --progress``
    # does, so traced and untraced samples take the same dispatch path.
    beats = []

    def new_runner():
        return ExperimentRunner(scaled_config(), settings,
                                cache_dir=cache_dir)

    def timed_pass(runner):
        start = time.perf_counter()
        outcomes = runner.run_campaign(mixes, CAMPAIGN["schemes"],
                                       workers=workers,
                                       progress=beats.append)
        return outcomes, time.perf_counter() - start

    runner = new_runner()
    setup_s = time.monotonic() - t0
    before = host_probe(cpus)
    first, wall_s = timed_pass(runner)
    between = host_probe(cpus)
    iso_entry = "repro.harness.runner.ExperimentRunner._run_isolated"
    cold_isolated = 0
    if traced is not None:
        traced.collect_workers()
        cold_isolated = traced.calls.get(iso_entry, 0)
    # Pass 2 starts from an empty process-wide trace memo, so every
    # chunk comes back from the disk cache pass 1 wrote.
    ktrace.clear_memory_cache()
    second, warm_wall_s = timed_pass(new_runner())
    after = host_probe(cpus)
    wanted = None if expected is None else expected["cells"]
    for index, (cold, warm) in enumerate(zip(first, second)):
        label = f"campaign {cold.mix_name} {cold.scheme}"
        fields = cell_outcome(cold)
        sane = all(math.isfinite(v) and v > 0 for v in fields[3:])
        checks.op(f"{label} pass 1", [
            not sane and "non-positive or infinite metric",
            wanted is not None and differs(
                "partition/WS/ANTT/fairness", fields, wanted[index])])
        checks.op(f"{label} pass 2", [differs(
            "pass 2 vs pass 1", outcome_signature(warm),
            outcome_signature(cold))])
    out = {
        "setup_s": setup_s, "wall_s": wall_s, "warm_wall_s": warm_wall_s,
        "probe_s": {"setup_s": before, "wall_s": before + between,
                    "warm_wall_s": between + after},
        "sim_insts": sum(warp_insts(o.result) for o in first),
        "peak_rss_mb": peak_rss_mb(children=True),
        "observed": {"cells": [cell_outcome(o) for o in first]},
    }
    if traced is not None:
        traced.collect_workers()
        counts = {}
        for outcome in first:
            for name, value in cell_layer_metrics(outcome.result).items():
                counts[name] = counts.get(name, 0) + value
        layers = layer_metrics(traced, counts)
        busy = sum(beat.duration_s for beat in beats)
        warm_isolated = traced.calls.get(iso_entry, 0) - cold_isolated
        layers.update({
            "harness.cell_busy_s": busy,
            "harness.worker_busy_frac": busy / (cpus * (wall_s + warm_wall_s)),
            "harness.cache_hit_frac": (1.0 - warm_isolated / cold_isolated
                                       if cold_isolated else 0.0),
        })
        out["layers"] = layers
    return out


# ----------------------------------------------------------------------
def layer_metrics(tracer, counts: dict) -> dict:
    """Per-layer metrics from the span totals and modelled counts."""
    self_s = tracer.self_s
    calls = tracer.calls
    sums = tracer.sums

    def ratio(num, den):
        return num / den if den else 0.0

    trace_counts = tracer.counters()
    accesses = counts["mem.l1d.accesses"]
    return {
        "sim.build.self_s": self_s["sim.build"],
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.engine.leap_frac": ratio(sums["cycles_leapt"],
                                      sums["cycles_run"]),
        "sim.sm.self_s": self_s["sim.sm"],
        "sim.sm.tick_calls": calls.get(
            "repro.sim.sm.StreamingMultiprocessor.tick", 0),
        "sim.scheduler.self_s": self_s["sim.scheduler"],
        "sim.scheduler.select_calls": calls.get(
            "repro.sim.scheduler.WarpScheduler.select", 0),
        "sim.lsu.self_s": self_s["sim.lsu"],
        "sim.lsu.stall_cycles": counts["sim.lsu.stall_cycles"],
        "mem.self_s": self_s["mem"],
        "mem.l1d.accesses": accesses,
        "mem.l1d.miss_rate": ratio(counts["mem.l1d.misses"], accesses),
        "mem.l1d.rsfail_per_access": ratio(counts["mem.l1d.rsfails"],
                                           accesses),
        "mem.l2.miss_rate": ratio(counts["mem.l2.misses"],
                                  counts["mem.l2.accesses"]),
        "mem.dram.accesses": counts["mem.dram.accesses"],
        "mem.dram.row_hit_rate": ratio(counts["mem.dram.row_hits"],
                                       counts["mem.dram.accesses"]),
        "mem.icnt.flits": counts["mem.icnt.flits"],
        "core.self_s": self_s["core"],
        "workloads.trace.compile_s": self_s["workloads.trace"],
        "workloads.trace.chunk_compiles":
            trace_counts["trace_cache.chunk_compiles"],
        "workloads.trace.disk_hits": trace_counts["trace_cache.disk_hits"],
        "workloads.trace.disk_writes":
            trace_counts["trace_cache.disk_writes"],
        "cke.partition_s": self_s["cke"],
        "harness.self_s": self_s["harness"],
        "harness.cell_busy_s": 0.0,
        "harness.worker_busy_frac": 0.0,
        "harness.cache_hit_frac": 0.0,
        "obs.self_s": self_s["obs"],
    }


def main(argv) -> int:
    workload, seed, t0, tmp = argv[0], int(argv[1]), float(argv[2]), argv[3]
    traced = "--traced" in argv
    expected = None
    if "--expected" in argv and seed == DEFAULT_SEED:
        with open(argv[argv.index("--expected") + 1], encoding="utf-8") as fh:
            stored = json.load(fh).get(workload)
        if stored is None or stored.get("params") != params(workload):
            raise SystemExit(f"no expected statistics for {workload} with "
                             f"these settings; rerun run.py --write-expected")
        expected = stored
    sys.path.insert(0, SRC)
    tracer = None
    if traced:
        from layers import Tracer
        tracer = Tracer(dump_dir=tmp if workload == "campaign" else None)
        tracer.install()
    checks = Checks()
    if workload == "campaign":
        out = run_campaign(seed, t0, tmp, tracer, expected, checks)
    else:
        out = run_cell(workload, seed, t0, tracer, expected, checks)
    out["checks"] = checks.as_dict()
    out["spans"] = tracer.totals() if tracer is not None else None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
