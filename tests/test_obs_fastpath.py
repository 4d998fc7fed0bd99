"""Observed runs on the fast loop must attribute exactly what the
reference loop attributes.

The fast loop skips cycles — whole-SM sleeps, engine leaps, scheduler
sleep hints, the memory-stall memo, issue-autopilot bursts, deferred
LSU stall replays — and charges each skipped cycle to the stall
taxonomy when the skip ends (docs/PERF.md §8).  These tests hold every
observable product of an observed run — the issue-slot and LSU stall
tables, the registry counters, the phase series and the adaptation
event log — equal to the reference loop's across the fast-path scheme
sweep, with phase intervals that do and do not divide the run, and a
mid-run report between two ``run()`` calls.  Observing must also leave
the fast loop's control flow alone: the same ``select()`` and
``SM.tick`` calls as an unobserved run.
"""

import collections

import pytest

from repro.harness.perfbench import result_signature
from repro.obs import ObsOptions
from repro.sim.scheduler import WarpScheduler
from repro.sim.sm import StreamingMultiprocessor
from tests.test_fastpath import CASES, CYCLES, build_gpu

#: (phase interval, run() lengths): 250 divides every split, 97
#: divides none of them.
SCHEDULES = [(250, (750, CYCLES - 750)), (97, (1000, CYCLES - 1000))]


def observed_products(case, reference, interval, splits, **options):
    _name, kernels, tbs, scheme_kwargs, cfg_kwargs = case
    obs = ObsOptions(phase=True, phase_interval=interval, **options)
    gpu = build_gpu(kernels, tbs, scheme_kwargs, cfg_kwargs, reference,
                    obs=obs)
    products = []
    for cycles in splits:
        result = gpu.run(cycles)
        report = result.obs
        (phases,) = report.phases
        products.append({
            "signature": result_signature(result),
            "sched_stalls": report.sched_stalls,
            "lsu_stalls": report.lsu_stalls,
            "counters": report.counters,
            "series": phases["series"],
            "adapt_events": phases["adapt_events"],
            "trace_events": report.trace_events,
            "issue_slots": report.issue_slots(),
        })
    return products


@pytest.mark.parametrize("interval,splits", SCHEDULES,
                         ids=[f"interval{s[0]}" for s in SCHEDULES])
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_observed_fast_matches_observed_reference(case, interval, splits):
    ref = observed_products(case, True, interval, splits)
    fast = observed_products(case, False, interval, splits)
    # Index 0 is the mid-run report between the two run() calls.
    for ref_part, fast_part in zip(ref, fast):
        for key, value in ref_part.items():
            assert fast_part[key] == value, key
        # Every issue slot of every cycle is classified exactly once.
        assert (sum(fast_part["sched_stalls"].values())
                == fast_part["issue_slots"])


def test_chrome_trace_matches_reference_loop():
    """With a trace the autopilot stays disarmed (one slice per issue),
    and every trace event — issue slices, memory lifetimes, quota
    instants — equals the reference loop's."""
    case = next(c for c in CASES if c[0] == "rbmi-dmil")
    options = dict(trace=True, trace_issue_sample=3, trace_mem_sample=2)
    ref = observed_products(case, True, 97, (700, 500), **options)
    fast = observed_products(case, False, 97, (700, 500), **options)
    assert fast[-1]["trace_events"]
    assert fast == ref


def count_calls(monkeypatch):
    counts = collections.Counter()
    for owner, name in ((WarpScheduler, "select"),
                        (StreamingMultiprocessor, "tick")):
        original = getattr(owner, name)

        def counting(self, *args, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counting)
    return counts


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_observing_keeps_fast_loop_control_flow(case, monkeypatch):
    """Stall tables and phase spans never wake an SM, disarm a burst or
    stop a deferral: observed and unobserved fast runs make the same
    select() and SM.tick calls (and simulate the same thing)."""
    counts = count_calls(monkeypatch)
    runs = {}
    for label, obs in (("plain", None),
                       ("observed", ObsOptions(phase=True,
                                               phase_interval=97))):
        counts.clear()
        gpu = build_gpu(*case[1:], reference=False, obs=obs)
        signature = result_signature(gpu.run(CYCLES))
        runs[label] = (signature, dict(counts))
    assert runs["observed"] == runs["plain"]
