"""Tests of the benchmark's layer map and span accounting.

Run from the repository root::

    python3 -m pytest simbench/tests -q
"""

import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from layers import LAYER_MAP, LAYERS, SUMMED, WORKER_INIT, Tracer, resolve  # noqa: E402
from sample import build_cell  # noqa: E402


def all_entries():
    for entries in LAYER_MAP.values():
        yield from entries
    yield WORKER_INIT


def test_every_entry_point_resolves():
    # A rename upstream must fail here, not silently drop a layer.
    for module_name, path in all_entries():
        _owner, _name, fn = resolve(module_name, path)
        assert callable(fn), f"{module_name}.{path}"
    names = {f"{m}.{p}" for m, p in all_entries()}
    assert set(SUMMED) <= names


def test_missing_entry_point_fails_loudly():
    with pytest.raises(AttributeError):
        resolve("repro.sim.sm", "StreamingMultiprocessor.no_such_tick")
    with pytest.raises(AttributeError):
        # Inherited, not defined here: wrapping it would shadow the
        # base-class hook the SM compares against.
        resolve("repro.core.mil", "NoLimit.note_request")


def test_uninstall_restores_every_attribute(tmp_path):
    before = [resolve(m, p)[2] for m, p in all_entries()]
    tracer = Tracer(dump_dir=str(tmp_path))
    tracer.install()
    try:
        wrapped = [resolve(m, p)[2] for m, p in all_entries()]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        tracer.uninstall()
    assert [resolve(m, p)[2] for m, p in all_entries()] == before


def traced_cell(kernels, cycles, obs=None):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = build_cell(kernels, 0, obs).run(cycles)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, result, wall


def test_self_times_account_for_traced_wall():
    tracer, _result, wall = traced_cell(("cd", "sv"), 400)
    covered = tracer._stack[0][1]
    total = sum(tracer.self_s.values())
    # Self times partition the time inside top-level spans exactly.
    assert total == pytest.approx(covered, rel=1e-9)
    # What no span covers is the small untraced remainder: building
    # the launches and the wrappers' own entry and exit.
    assert 0.0 <= wall - covered < 0.05 * wall + 0.01
    for layer in ("sim.build", "sim.engine", "sim.sm", "sim.scheduler", "sim.lsu",
                  "mem", "core", "workloads.trace"):
        assert tracer.self_s[layer] > 0.0, layer
    assert tracer.sums["cycles_run"] == 400


def test_observed_run_records_the_obs_layer():
    from repro.obs import ObsOptions
    tracer, _result, _wall = traced_cell(
        ("cd", "sv"), 300, ObsOptions(phase=True, phase_interval=100))
    assert tracer.self_s["obs"] > 0.0
    assert tracer.calls["repro.obs.timeline.PhaseSampler.on_cycle"] == 300


def test_tracing_leaves_results_identical():
    from repro.harness.perfbench import result_signature
    plain = build_cell(("dc", "pf"), 0, None).run(300)
    _tracer, traced, _wall = traced_cell(("dc", "pf"), 300)
    assert result_signature(traced) == result_signature(plain)


def test_leapt_cycles_are_summed():
    from repro import GPU, SchemeConfig, get_profile, make_launches
    from repro import scaled_config
    config = scaled_config()
    tracer = Tracer()
    tracer.install()
    try:
        launches = make_launches([get_profile("sv")], [1], config)
        GPU(config, launches, SchemeConfig()).run(3000)
    finally:
        tracer.uninstall()
    leapt = tracer.sums["cycles_leapt"]
    ticked = tracer.calls["repro.mem.subsystem.PooledMemorySubsystem.tick"]
    assert leapt > 0
    # Every cycle is either ticked by the engine loop or leapt.
    assert leapt + ticked == 3000


def test_campaign_workers_report_their_spans(tmp_path):
    from repro import scaled_config
    from repro.harness.runner import ExperimentRunner, RunnerSettings
    from repro.workloads import trace as ktrace
    from repro.workloads.mixes import WorkloadMix
    from repro.workloads.profiles import get_profile
    # Forked workers inherit this process's compiled traces; start
    # empty so they compile and write chunks.
    ktrace.clear_memory_cache()
    settings = RunnerSettings(iso_cycles=300, curve_cycles=200,
                              concurrent_cycles=300)
    runner = ExperimentRunner(scaled_config(), settings,
                              cache_dir=str(tmp_path / "cache"))
    mix = WorkloadMix((get_profile("dc"), get_profile("sv")))
    tracer = Tracer(dump_dir=str(tmp_path))
    tracer.install()
    try:
        runner.run_campaign([mix], ["ws", "ws-dmil"], workers=2)
    finally:
        tracer.uninstall()
    if (os.cpu_count() or 1) > 1:
        assert tracer.collect_workers() >= 1
    assert tracer.calls["repro.harness.parallel.execute_job"] >= 2
    assert tracer.self_s["cke"] > 0.0
    assert tracer.counters()["trace_cache.disk_writes"] > 0
    assert set(tracer.self_s) == set(LAYERS)
